// Command swbench is the repository's end-to-end benchmark. It runs one of
// four seeded workloads through the public façade (and the layers'
// exported functions), checks the simulated results, and prints every
// metric with its unit and sample count; the last line of standard output
// is one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1).
//
// Usage (from the repository root):
//
//	bash swbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
//	bash swbench/run.sh --crosscheck --seeds 1,7
//
// Latency metrics are simulated and a pure function of the seed; host-time
// metrics (setup_s, run_s, live_heap_mb and the per-layer host times) are
// medians over the repetitions that fit in --seconds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	outDir     string
	crosscheck bool
	seeds      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "fleet", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for (repetitions continue until then, at least two)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "trace"), "directory for the traced run's spans and CPU profile")
	fs.BoolVar(&o.crosscheck, "crosscheck", false, "check determinism across repeated, traced and sharded runs instead of measuring")
	fs.StringVar(&o.seeds, "seeds", "1,7", "seeds for -crosscheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.crosscheck {
		return crossCheck(o, stdout, stderr)
	}
	spec, err := genSpec(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "swbench:", err)
		return 2
	}
	var res *result
	if o.trace == 0 {
		res, err = measure(spec, o.seconds, stdout)
	} else {
		res, err = measureTraced(spec, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "swbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	line, err := json.Marshal(res.jsonLine())
	if err != nil {
		fmt.Fprintln(stderr, "swbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

// result is what one invocation reports.
type result struct {
	metrics           []metric
	attempted, failed int
	failures          []string
}

type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // sample count or source, printed with the metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) jsonLine() jsonLine {
	out := jsonLine{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// repeat runs untraced repetitions until the host-time budget is spent
// (at least min of them), checking that every repetition reproduces the
// first exactly.
func repeat(s *Spec, seconds float64, min int) ([]*rep, error) {
	start := time.Now()
	var reps []*rep
	for len(reps) < min || time.Since(start).Seconds() < seconds {
		r, err := runRep(s, nil, nil)
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 {
			if err := sameSim(reps[0], r); err != nil {
				r.Failures = append(r.Failures, "repetition "+strconv.Itoa(len(reps))+": "+err.Error())
			}
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// sameSim reports whether two runs of one seed behaved identically.
func sameSim(a, b *rep) error {
	if a.Print != b.Print {
		return fmt.Errorf("fingerprint %s differs from %s", b.Print, a.Print)
	}
	if !reflect.DeepEqual(a.Sim, b.Sim) {
		return errors.New("simulated metrics differ with an equal fingerprint")
	}
	return nil
}

// measure is the untraced run: end-to-end metrics.
func measure(s *Spec, seconds float64, w io.Writer) (*result, error) {
	reps, err := repeat(s, seconds, 2)
	if err != nil {
		return nil, err
	}
	r0 := reps[0]
	res := baseResult(s, reps, w)
	setups, err := setupSamples(s, reps)
	if err != nil {
		return nil, err
	}
	n := fmt.Sprintf("median of %d repetitions", len(reps))
	runs := make([]string, len(reps))
	for i, r := range reps {
		runs[i] = fmt.Sprintf("%.3f (wall %.3f)", r.RunS, r.RunWallS)
	}
	res.metrics = append(res.metrics,
		metric{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
		metric{"run_s", "s", medianOf(reps, runS), n + ": " + strings.Join(runs, " ")},
		metric{"live_heap_mb", "MiB", medianOf(reps, func(r *rep) float64 { return r.HeapMB }), n},
	)
	for _, p := range []struct {
		name string
		q    float64
	}{{"rtt_p50_ms", .5}, {"rtt_p99_ms", .99}} {
		pq := percentile(r0.Sim.RTT, p.q)
		if !pq.OK {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", p.name, pq))
		}
		res.metrics = append(res.metrics, metric{p.name, "ms", pq.Value, fmt.Sprintf("n=%d", pq.N)})
	}
	res.metrics = append(res.metrics,
		metric{"req_ok_frac", "ratio", 1 - frac(r0.Sim.Unanswered, r0.Sim.Requests), fmt.Sprintf("%d of %d answered", r0.Sim.Requests-r0.Sim.Unanswered, r0.Sim.Requests)},
		metric{"op_ok_frac", "ratio", 1 - frac(r0.Sim.OpsFailed, r0.Sim.Ops), fmt.Sprintf("%d of %d ok", r0.Sim.Ops-r0.Sim.OpsFailed, r0.Sim.Ops)},
	)
	printMetrics(w, "e2e", res.metrics)
	return res, nil
}

// medianOf is the median of a host reading over repetitions.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

func runS(r *rep) float64 { return r.RunS }

// setupSamples adds set-up-only repetitions to the full ones' set-up
// times, until there are at least minSetups or a second has been spent.
func setupSamples(s *Spec, reps []*rep) ([]float64, error) {
	const minSetups = 15
	var out []float64
	for _, r := range reps {
		out = append(out, r.SetupS)
	}
	start := time.Now()
	for len(out) < minSetups && time.Since(start) < time.Second {
		v, err := setupOnly(s)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// baseResult prints the fingerprint and the workload-specific simulated
// metrics shared by traced and untraced runs, and gathers the checks.
func baseResult(s *Spec, reps []*rep, w io.Writer) *result {
	r0 := reps[0]
	res := &result{
		attempted: r0.Sim.Requests + r0.Sim.Ops,
		failed:    r0.Sim.Unanswered + r0.Sim.OpsFailed,
	}
	for _, r := range reps {
		res.failures = append(res.failures, r.Failures...)
	}
	fmt.Fprintf(w, "swbench %s seed=%d repetitions=%d\n", s.Workload, s.Seed, len(reps))
	fmt.Fprintf(w, "fingerprint %s\n", r0.Print)
	printMetrics(w, "sim", simMetrics(r0))
	for _, e := range r0.LockstepErrs {
		fmt.Fprintln(w, "lockstep:", e)
	}
	for _, e := range r0.FailedOps {
		fmt.Fprintln(w, "op failed:", e)
	}
	return res
}

// simMetrics are the simulated end-to-end figures every run prints with
// their sample counts; percentiles without ten samples beyond read n/a.
func simMetrics(r *rep) []metric {
	s := r.Sim
	pct := func(name string, v []float64, q float64) metric {
		p := percentile(v, q)
		note := fmt.Sprintf("n=%d", p.N)
		if !p.OK {
			note = p.String()
		}
		return metric{name, "ms", p.Value, note}
	}
	return []metric{
		pct("rtt_p50_ms", s.RTT, .5), pct("rtt_p99_ms", s.RTT, .99),
		pct("fetch_p50_ms", s.Fetch, .5), pct("fetch_p90_ms", s.Fetch, .9),
		pct("nfs_p50_ms", s.NFS, .5), pct("nfs_p99_ms", s.NFS, .99),
		pct("recovery_p50_ms", s.Recovery, .5),
		{"req_fail_frac", "ratio", frac(s.Unanswered, s.Requests), fmt.Sprintf("%d of %d unanswered, %d answered twice", s.Unanswered, s.Requests, s.DupReplies)},
		{"op_fail_frac", "ratio", frac(s.OpsFailed, s.Ops), fmt.Sprintf("%d of %d ops", s.OpsFailed, s.Ops)},
		{"lockstep_fail_frac", "ratio", frac(s.Diverged, s.Guests), fmt.Sprintf("%d of %d guests", s.Diverged, s.Guests)},
	}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(w io.Writer, kind string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-4s %-28s %14.6g %-6s %s\n", kind, m.Name, m.Value, m.Unit, m.Note)
	}
}
