// Command stopwatch-sim runs one cloud scenario and prints what happened:
// a file download, an NFS load, a compute workload, an attacker/victim
// side-channel measurement — under the StopWatch VMM or the baseline — or a
// declarative fleet scenario file driven through the unified operations API
// (see scenarios/ and the README's "Scenarios" section).
//
// Usage:
//
//	stopwatch-sim -scenario download -mode stopwatch -size 100 -transport tcp
//	stopwatch-sim -scenario nfs -mode baseline -rate 100
//	stopwatch-sim -scenario parsec -app dedup
//	stopwatch-sim -scenario sidechannel -duration 20
//	stopwatch-sim run scenarios/lifecycle.yaml
//	stopwatch-sim run -seed 2 -shards 4 -listen 127.0.0.1:8080 scenarios/coresidency-probe.yaml
//	stopwatch-sim validate scenarios/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/experiment"
	"stopwatch/internal/scenario"
	"stopwatch/internal/sim"
	"stopwatch/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stopwatch-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenarioFiles(args[1:], out)
		case "validate":
			return validateScenarioFiles(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("stopwatch-sim", flag.ContinueOnError)
	scenarioFlag := fs.String("scenario", "download", "download | nfs | parsec | sidechannel")
	mode := fs.String("mode", "stopwatch", "stopwatch | baseline (download and nfs; parsec and sidechannel run both)")
	sizeKB := fs.Int("size", 100, "download size in KB")
	transportFlag := fs.String("transport", "tcp", "tcp | udp (download scenario)")
	rate := fs.Float64("rate", 100, "NFS ops/s")
	app := fs.String("app", "ferret", "parsec app: ferret|blackscholes|canneal|dedup|streamcluster")
	duration := fs.Float64("duration", 10, "scenario duration (seconds)")
	seed := fs.Uint64("seed", 1, "master seed")
	shards := fs.Int("shards", 1, "fabric shards (parallel simulation loops; download/nfs scenarios — results are identical for every value)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cc := core.DefaultClusterConfig()
	cc.Seed, cc.Shards = *seed, *shards
	switch *mode {
	case "stopwatch":
		cc.Mode = core.ModeStopWatch
	case "baseline":
		cc.Mode = core.ModeBaseline
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	modeSet := false
	fs.Visit(func(f *flag.Flag) { modeSet = modeSet || f.Name == "mode" })

	if *shards < 1 {
		return fmt.Errorf("shards must be >= 1, got %d", *shards)
	}
	switch *scenarioFlag {
	case "download":
		return runDownload(out, cc, *sizeKB, *transportFlag)
	case "nfs":
		return runNFS(out, cc, *rate, sim.FromSeconds(*duration))
	case "parsec", "sidechannel":
		if modeSet {
			return fmt.Errorf("-scenario %s always compares both hypervisors; drop -mode", *scenarioFlag)
		}
		if *scenarioFlag == "parsec" {
			return runParsec(out, *seed, *app)
		}
		return runSideChannel(out, *seed, sim.FromSeconds(*duration))
	case "lifecycle":
		return fmt.Errorf("the lifecycle walkthrough is a scenario file now: stopwatch-sim run scenarios/lifecycle.yaml")
	default:
		return fmt.Errorf("unknown scenario %q", *scenarioFlag)
	}
}

// expandScenarioPaths resolves each argument to scenario files: a
// directory expands to its *.yaml/*.yml/*.json entries, sorted.
func expandScenarioPaths(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			switch filepath.Ext(e.Name()) {
			case ".yaml", ".yml", ".json":
				files = append(files, filepath.Join(arg, e.Name()))
			}
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario files given (usage: stopwatch-sim run|validate <file|dir>...)")
	}
	return files, nil
}

// runScenarioFiles executes scenario files under every declared seed (or
// one -seed override), printing a per-run verdict and failing if any run
// does.
func runScenarioFiles(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stopwatch-sim run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 0, "override the scenario's seeds (0 = run every declared seed)")
	shards := fs.Int("shards", 0, "override the fleet's shard count (0 = the file's; digests are identical for every value)")
	listen := fs.String("listen", "", "serve /metrics, /metrics.json, /ops and /ops/stream on this loopback address during the run")
	quiet := fs.Bool("q", false, "suppress the op-stream narration")
	ciOnly := fs.Bool("ci", false, "run only scenarios tagged ci: true")
	noReconcile := fs.Bool("no-reconcile", false, "disable the pre-view-commit survivor reconcile round (failure-injection experiments)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files, err := expandScenarioPaths(fs.Args())
	if err != nil {
		return err
	}
	failed := 0
	for _, path := range files {
		sc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		if *ciOnly && !sc.CI {
			continue
		}
		seeds := sc.Seeds
		if *seed != 0 {
			seeds = []uint64{*seed}
		}
		for _, s := range seeds {
			opt := scenario.Options{Seed: s, Shards: *shards, Listen: *listen, DisableReconcile: *noReconcile}
			if !*quiet {
				opt.Out = out
			}
			res, err := scenario.Run(sc, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			verdict := "PASS"
			if !res.Passed() {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(out, "%s  %s seed=%d shards=%d ops=%d digest=%s\n",
				verdict, res.Name, res.Seed, res.Shards, res.Ops, res.Digest)
			for _, f := range res.Failures {
				fmt.Fprintf(out, "  - %s\n", f)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario run(s) failed", failed)
	}
	return nil
}

// validateScenarioFiles parses and statically checks scenario files
// without running them.
func validateScenarioFiles(args []string, out io.Writer) error {
	files, err := expandScenarioPaths(args)
	if err != nil {
		return err
	}
	bad := 0
	for _, path := range files {
		sc, err := scenario.Load(path)
		if err == nil {
			err = sc.Validate()
		}
		if err != nil {
			bad++
			fmt.Fprintf(out, "INVALID %s\n%v\n", path, err)
			continue
		}
		fmt.Fprintf(out, "ok %s\n", path)
	}
	if bad > 0 {
		return fmt.Errorf("%d scenario file(s) invalid", bad)
	}
	return nil
}

func runDownload(out io.Writer, cc core.ClusterConfig, sizeKB int, transportFlag string) error {
	var fsMode apps.FileServerMode
	switch transportFlag {
	case "tcp":
		fsMode = apps.ModeTCP
	case "udp":
		fsMode = apps.ModeUDP
	default:
		return fmt.Errorf("unknown transport %q", transportFlag)
	}
	r, err := experiment.RunFig5One(cc, sizeKB, fsMode, 600*sim.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scenario:   %s download, %d KB over %s\n", cc.Mode, sizeKB, transportFlag)
	fmt.Fprintf(out, "latency:    %.2f ms\n", r.MeanMS())
	fmt.Fprintf(out, "client pkts: sent=%d received=%d\n", r.PacketsSent, r.PacketsReceived)
	if cc.Mode == core.ModeStopWatch {
		fmt.Fprintf(out, "lockstep:   %v\n", errString(r.Lockstep))
		fmt.Fprintf(out, "divergences: %d\n", r.Divergences)
		fmt.Fprintf(out, "egress forwarded: %d packets\n", r.EgressForwarded)
	}
	return nil
}

func runNFS(out io.Writer, cc core.ClusterConfig, rate float64, dur sim.Time) error {
	r, err := experiment.RunFig6One(cc, experiment.Fig6Config{Processes: 5, LoadDuration: dur, DrainDuration: 3 * sim.Second}, rate)
	if err != nil {
		return err
	}
	var ms []float64
	for _, l := range r.Latencies {
		ms = append(ms, l.Milliseconds())
	}
	sum, err := stats.Summarize(ms)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scenario: %s NFS at %.0f ops/s for %s\n", cc.Mode, rate, dur)
	fmt.Fprintf(out, "ops:      issued=%d completed=%d\n", r.Issued, r.Completed)
	fmt.Fprintf(out, "latency:  mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms\n", sum.Mean, sum.P50, sum.P95, sum.P99)
	fmt.Fprintf(out, "packets/op: c→s=%.2f s→c=%.2f\n",
		float64(r.PacketsSent)/float64(r.Completed), float64(r.PacketsReceived)/float64(r.Completed))
	if cc.Mode == core.ModeStopWatch {
		fmt.Fprintf(out, "lockstep: %v\n", errString(r.Lockstep))
	}
	return nil
}

func runParsec(out io.Writer, seed uint64, name string) error {
	cfg := experiment.DefaultFig7Config()
	i := slices.IndexFunc(cfg.Profiles, func(p apps.ParsecProfile) bool { return p.Name == name })
	if i < 0 {
		return fmt.Errorf("unknown parsec app %q", name)
	}
	cfg.Seed = seed
	cfg.Profiles = cfg.Profiles[i : i+1]
	r, err := experiment.RunFig7(cfg)
	if err != nil {
		return err
	}
	p := r.Points[0]
	fmt.Fprintf(out, "scenario: parsec %s\n", name)
	fmt.Fprintf(out, "baseline:  %.0f ms (paper: %.0f ms)\n", p.Baseline, p.PaperBaseline)
	fmt.Fprintf(out, "stopwatch: %.0f ms (paper: %.0f ms)\n", p.StopWatch, p.PaperStopWatch)
	fmt.Fprintf(out, "ratio:     %.2fx; disk interrupts: %d\n", p.Ratio, p.DiskInterrupts)
	return nil
}

func runSideChannel(out io.Writer, seed uint64, dur sim.Time) error {
	cfg := experiment.DefaultFig4Config()
	cfg.Seed, cfg.Duration = seed, dur
	r, err := experiment.RunFig4(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, r.Render())
	return nil
}

func errString(err error) string {
	if err == nil {
		return "ok (identical replica outputs)"
	}
	return err.Error()
}
