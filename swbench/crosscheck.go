package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// crossCheck runs every workload at each seed three times — twice
// untraced, once traced — and requires identical fingerprints and
// simulated metrics across the three, and between fleet and
// fleet-sharded. It prints one line per (seed, workload).
func crossCheck(o options, w, ew io.Writer) int {
	bad := 0
	check := func(seed uint64, wl, what string, err error) {
		if err != nil {
			bad++
			fmt.Fprintf(w, "MISMATCH seed=%d %s %s: %v\n", seed, wl, what, err)
		}
	}
	for _, f := range strings.Split(o.seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintln(ew, "swbench: bad seed list:", err)
			return 2
		}
		var fleet *rep
		for _, wl := range workloads {
			s, err := genSpec(wl, seed)
			if err != nil {
				fmt.Fprintln(ew, "swbench:", err)
				return 2
			}
			var runs [3]*rep
			for i := range runs {
				var tr *tracer
				if i == 2 {
					tr = newTracer()
				}
				if runs[i], err = runRep(s, tr, nil); err != nil {
					fmt.Fprintln(ew, "swbench:", err)
					return 1
				}
				for _, f := range runs[i].Failures {
					check(seed, wl, "checks", fmt.Errorf("%s", f))
				}
			}
			check(seed, wl, "repeat", sameSim(runs[0], runs[1]))
			check(seed, wl, "traced", sameSim(runs[0], runs[2]))
			switch wl {
			case "fleet":
				fleet = runs[0]
			case "fleet-sharded":
				check(seed, wl, "vs fleet", sameSim(fleet, runs[0]))
			}
			fmt.Fprintf(w, "crosscheck seed=%d %-13s %s lockstep_fail=%d/%d\n",
				seed, wl, runs[0].Print, runs[0].Sim.Diverged, runs[0].Sim.Guests)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "crosscheck: %d mismatches\n", bad)
		return 1
	}
	fmt.Fprintln(w, "crosscheck: ok")
	return 0
}
