// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-only fig1,fig4,...] [-fast] [-seed N]
//
// Each figure prints its paper-style series to stdout. With -fast the
// simulation-backed experiments run shorter scenarios (useful for smoke
// runs); without it, the full durations are used.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stopwatch"
	"stopwatch/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated subset: fig1,fig1c,fig4,fig5,fig6,fig7,fig8,placement,calib,collab,leader")
	fast := fs.Bool("fast", false, "shorter simulation runs")
	seed := fs.Uint64("seed", 0, "override master seed (0 = per-experiment defaults)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "profile:", perr)
		}
	}()

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }
	seedOr := func(def uint64) uint64 {
		if *seed != 0 {
			return *seed
		}
		return def
	}

	type step struct {
		name string
		fn   func() (interface{ Render() string }, error)
	}
	steps := []step{
		{"fig1", func() (interface{ Render() string }, error) {
			return stopwatch.RunFig1(stopwatch.DefaultFig1Config())
		}},
		{"fig1c", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultFig1Config()
			cfg.LambdaPrime = 10.0 / 11.0
			return stopwatch.RunFig1(cfg)
		}},
		{"fig4", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultFig4Config()
			cfg.Seed = seedOr(cfg.Seed)
			if *fast {
				cfg.Duration = stopwatch.Seconds(8)
			}
			return stopwatch.RunFig4(cfg)
		}},
		{"fig5", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultFig5Config()
			cfg.Seed = seedOr(cfg.Seed)
			if *fast {
				cfg.Runs = 2
				cfg.SizesKB = []int{1, 10, 100, 1000}
			}
			return stopwatch.RunFig5(cfg)
		}},
		{"fig6", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultFig6Config()
			cfg.Seed = seedOr(cfg.Seed)
			if *fast {
				cfg.LoadDuration = stopwatch.Seconds(2)
			}
			return stopwatch.RunFig6(cfg)
		}},
		{"fig7", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultFig7Config()
			cfg.Seed = seedOr(cfg.Seed)
			return stopwatch.RunFig7(cfg)
		}},
		{"fig8", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultFig8Config()
			if *fast {
				cfg.Trials = 100
			}
			return stopwatch.RunFig8(cfg)
		}},
		{"placement", func() (interface{ Render() string }, error) {
			return stopwatch.RunPlacementTable(stopwatch.DefaultPlacementConfig())
		}},
		{"calib", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultCalibConfig()
			cfg.Seed = seedOr(cfg.Seed)
			if *fast {
				cfg.Duration = stopwatch.Seconds(5)
				cfg.DeltaNsMS = []float64{2, 8, 16}
			}
			return stopwatch.RunCalib(cfg)
		}},
		{"collab", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultCollabConfig()
			cfg.Seed = seedOr(cfg.Seed)
			if *fast {
				cfg.Duration = stopwatch.Seconds(8)
			}
			return stopwatch.RunCollab(cfg)
		}},
		{"leader", func() (interface{ Render() string }, error) {
			cfg := stopwatch.DefaultLeaderConfig()
			cfg.Seed = seedOr(cfg.Seed)
			if *fast {
				cfg.Duration = stopwatch.Seconds(8)
			}
			return stopwatch.RunLeader(cfg)
		}},
	}

	ran := 0
	for _, s := range steps {
		if !sel(s.name) {
			continue
		}
		ran++
		fmt.Printf("==== %s ====\n", s.name)
		r, err := s.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Println(r.Render())
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -only=%q", *only)
	}
	return nil
}
