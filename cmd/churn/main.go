// Command churn is a preset front-end over the scenario interpreter: its
// flags describe an open-loop fleet — a Poisson stream of tenant arrivals
// and departures, injected replica failures, host maintenance drains and
// whole-machine crashes over tens of hosts — which it translates into a
// scenario.Scenario, runs with scenario.Run, and reports. Every top-level
// operation is placement-audited, every surviving tenant gets a strict
// lockstep audit at the end, and the op-log digest is byte-identical
// across runs with the same seed. scenarios/churn.yaml is the same preset
// as a scenario file: `stopwatch-sim run scenarios/churn.yaml`.
//
// With -autodetect the injected machine crashes are data-plane kills only:
// the control plane's stall detector notices each dead VMM through missed
// proposal deadlines and drives the whole fail → reconfigure → evacuate
// pipeline itself.
//
// Usage:
//
//	churn -hosts 24 -capacity 4 -duration 30 -arrival-rate 2.5 -failures 4 -drains 2 -crashes 1
//	churn -hosts 21 -duration 15 -crashes 2 -autodetect
//	churn -hosts 10 -duration 10 -listen 127.0.0.1:8080 -metrics-out metrics.json -load-aware
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"stopwatch"
	"stopwatch/internal/profiling"
	"stopwatch/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

// options is one churn run: the translated scenario plus the flags that
// only concern this process.
type options struct {
	sc                     *scenario.Scenario
	seed                   uint64
	cpuprofile, memprofile string
	listen, metricsOut     string
}

func parse(args []string) (options, error) {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	o := options{}
	f := scenario.Fleet{Guests: []scenario.GuestSpec{{Name: "tenant", App: scenario.AppSpec{Kind: "tenant", Sink: "churn-sink"}}}}
	a := &scenario.Arrivals{Guest: "tenant", From: "churn-client"}
	var duration, life, ping float64
	fs.IntVar(&f.Machines, "hosts", 24, "machines in the cloud")
	fs.IntVar(&f.Capacity, "capacity", 4, "replicas per machine (placement capacity c)")
	fs.Float64Var(&duration, "duration", 30, "scenario length (simulated seconds)")
	fs.Float64Var(&a.Rate, "arrival-rate", 2.5, "tenant arrivals per second (Poisson)")
	fs.Float64Var(&life, "mean-lifetime", 8, "mean tenant lifetime (seconds, exponential)")
	fs.IntVar(&a.Failures, "failures", 4, "replica failures to inject")
	fs.IntVar(&a.Drains, "drains", 2, "host maintenance drains to inject (evacuate, later re-admit)")
	fs.IntVar(&a.Crashes, "crashes", 1, "whole-machine VMM crashes to inject (fail, reconfigure, evacuate, repair)")
	fs.BoolVar(&f.StallDetector, "autodetect", false, "kill crashed machines at the data plane only; the stall detector submits the FailOp")
	fs.Float64Var(&ping, "ping-interval", 0.25, "client ping period per resident guest (seconds)")
	fs.Uint64Var(&o.seed, "seed", 1, "master seed")
	fs.IntVar(&f.Shards, "shards", 1, "fabric shards (parallel simulation loops; the op-log digest is identical for every value)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.StringVar(&o.listen, "listen", "", "serve /metrics, /metrics.json, /ops and /ops/stream on this loopback address (e.g. 127.0.0.1:8080; empty = off)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the end-of-run metrics snapshot as canonical JSON to this file")
	fs.BoolVar(&f.LoadAware, "load-aware", false, "telemetry-driven admission: score and gate hosts by live Dom0 disk backlog (changes placement, and with it the op-log digest)")
	fs.Int64Var(&f.CheckpointInstr, "checkpoint-interval", 0, "instructions between journal checkpoints (multiple of the VMM exit quantum; 0 = off; bounds replacement replay without changing the op-log digest)")
	fs.BoolVar(&f.PlannedMigration, "migrate", false, "planned migration: turn infeasible admissions and re-homes into one-move MigrateOp plans (changes placement, and with it the op-log digest)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if f.Machines < 5 || duration <= 2 || a.Rate <= 0 || life <= 0 {
		return o, fmt.Errorf("implausible scenario: hosts=%d duration=%v rate=%v life=%v",
			f.Machines, duration, a.Rate, life)
	}
	a.LifetimeMS, a.PingMS = life*1000, ping*1000
	o.sc = &scenario.Scenario{
		Name:       "churn",
		DurationMS: int64(math.Round(duration * 1000)),
		Seeds:      []uint64{o.seed},
		Fleet:      f,
		Arrivals:   a,
	}
	return o, o.sc.Validate()
}

func run(args []string, out io.Writer) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(out, "profile:", perr)
		}
	}()
	f := &o.sc.Fleet
	// Observing the run never perturbs it: the op-log digest is identical
	// with and without -listen and -metrics-out.
	if o.listen != "" {
		fmt.Fprintf(out, "observability: serving http://%s/{metrics,metrics.json,ops,ops/stream} during the run\n", o.listen)
	}
	// Load-aware admission and planned migration change placement, and
	// with it the pinned digests, so both are opt-in.
	if f.LoadAware {
		fmt.Fprintln(out, "load-aware admission: on")
	}
	if f.PlannedMigration {
		fmt.Fprintln(out, "planned migration: on")
	}
	res, err := scenario.Run(o.sc, scenario.Options{Seed: o.seed, Listen: o.listen})
	if err != nil {
		return err
	}
	if o.metricsOut != "" {
		if err := os.WriteFile(o.metricsOut, []byte(res.Metrics), 0o644); err != nil {
			return fmt.Errorf("write metrics snapshot: %w", err)
		}
	}
	report(out, o, res)
	if !res.Passed() {
		return fmt.Errorf("%d defects: %s", len(res.Failures), res.Failures[0])
	}
	return nil
}

func report(out io.Writer, o options, res *scenario.Result) {
	f, st, t := &o.sc.Fleet, res.Stats, res.Tally
	offered := st.Admitted + st.Rejected
	admissionRate := 0.0
	if offered > 0 {
		admissionRate = float64(st.Admitted) / float64(offered)
	}
	byKind := map[string]int{}
	detected := 0
	for _, oc := range res.Log {
		byKind[oc.Op.Kind().String()]++
		if fop, ok := oc.Op.(stopwatch.FailOp); ok && fop.Detected {
			detected++
		}
	}
	fmt.Fprintf(out, "churn scenario: %d hosts, capacity %d, %.0fs, seed %d, autodetect=%v\n",
		f.Machines, f.Capacity, float64(o.sc.DurationMS)/1000, res.Seed, f.StallDetector)
	fmt.Fprintf(out, "  offered %d tenants: admitted=%d rejected=%d (admission rate %.2f)\n",
		offered, st.Admitted, st.Rejected, admissionRate)
	fmt.Fprintf(out, "  evicted=%d resident-at-end=%d final-utilization=%.2f\n", st.Evicted, t.Residents, t.Utilization)
	// Evacuation moves (drain and crash) also count in Stats.Replacements;
	// subtract them so this line reports failure recoveries only.
	fmt.Fprintf(out, "  failures injected=%d replaced=%d replacement-failures=%d infeasible-skipped=%d drain-retries=%d\n",
		t.ReplicaKills, st.Replacements-st.Evacuations-st.CrashEvacuations, t.ReplaceErrs, t.Infeasible, st.DrainRetries)
	fmt.Fprintf(out, "  maintenance: drains=%d/%d evacuated=%d evacuation-failures=%d drain-errors=%d\n",
		t.DrainsDone, t.Drains, st.Evacuations, st.EvacuationFailures, t.DrainErrs)
	fmt.Fprintf(out, "  host crashes: crashes=%d/%d auto-detected=%d crash-evacuated=%d crash-evacuation-failures=%d crash-errors=%d\n",
		t.CrashesDone, t.Crashes, detected, st.CrashEvacuations, st.CrashEvacuationFailures, t.CrashErrs)
	fmt.Fprintf(out, "  ops: total=%d admits=%d evicts=%d replaces=%d drains=%d undrains=%d fails=%d evacuates=%d repairs=%d audited=%d\n",
		len(res.Log), byKind["admit"], byKind["evict"], byKind["replace"], byKind["drain"], byKind["undrain"],
		byKind["fail"], byKind["evacuate"], byKind["repair"], t.Audited)
	if f.CheckpointInstr > 0 {
		fmt.Fprintf(out, "  checkpointing: interval=%d checkpoints=%d truncated-records=%d truncated-bytes=%d\n",
			f.CheckpointInstr, t.Checkpoints, t.TruncatedRecords, t.TruncatedBytes)
	}
	if f.PlannedMigration {
		fmt.Fprintf(out, "  migration: planned=%d completed=%d failed=%d\n",
			st.MigrationsPlanned, st.Migrations, st.MigrationFailures)
	}
	fmt.Fprintf(out, "  op-log: digest=%s\n", res.Digest)
	fmt.Fprintf(out, "  placement: every top-level outcome audited, violations=%d\n", t.Violations)
	fmt.Fprintf(out, "  lockstep: ok=%d degraded-ok=%d diverged=%d prefix-errors=%d divergences=%d echoes=%d egress-stuck=%d\n",
		t.Lockstep, t.Degraded, t.Diverged, t.PrefixErrs, t.Divergences, t.Echoes, t.EgressStuck)
	for _, msg := range res.Failures {
		fmt.Fprintf(out, "  defect: %s\n", msg)
	}
}
