// Static validation: everything that can be rejected before building a
// cluster — unknown hosts, events out of order, references to undeclared
// guests, fault endpoints out of range, assertion vocabulary. Every
// message carries file:line provenance; Validate reports all defects,
// joined.

package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// statsFields is the FoldOpStats vocabulary of the "stats" assertion.
var statsFields = map[string]bool{
	"admitted": true, "rejected": true, "evicted": true,
	"replacements": true, "replacement_failures": true,
	"drain_retries": true, "host_drains": true,
	"evacuations": true, "evacuation_failures": true,
	"host_failures": true, "crash_evacuations": true,
	"crash_evacuation_failures": true,
	"migrations":                true, "migration_failures": true, "migrations_planned": true,
	"reconcile_rounds": true, "reconcile_repairs": true, "reconcile_retries": true,
}

// opKinds is the op-log vocabulary of the "oplog" assertion.
var opKinds = map[string]bool{
	"admit": true, "evict": true, "replace": true, "drain": true,
	"undrain": true, "fail": true, "evacuate": true, "repair": true,
	"migrate": true,
}

// Validate runs every static check and returns the joined defects (nil
// when clean).
func (sc *Scenario) Validate() error {
	v := &validator{sc: sc, totals: map[string]int{}, specs: map[string]*GuestSpec{}}
	v.fleet()
	v.arrivals()
	v.events()
	v.assertions()
	return errors.Join(v.errs...)
}

type validator struct {
	sc     *Scenario
	errs   []error
	specs  map[string]*GuestSpec
	totals map[string]int // spec → total instances over the whole script
}

func (v *validator) errf(line int, format string, args ...any) {
	v.errs = append(v.errs, fmt.Errorf("%s:%d: %s", v.sc.Path, line, fmt.Sprintf(format, args...)))
}

func (v *validator) fleet() {
	sc := v.sc
	if sc.Name == "" {
		v.errf(1, "scenario needs a name")
	}
	if sc.DurationMS <= 0 {
		v.errf(1, "scenario needs a positive duration_ms")
	}
	f := &sc.Fleet
	if f.Machines < 3 {
		v.errf(1, "fleet needs at least 3 machines, got %d", f.Machines)
	}
	if f.Capacity < 1 {
		v.errf(1, "fleet capacity must be at least 1, got %d", f.Capacity)
	}
	if f.Shards < 1 || f.Shards > max(f.Machines, 1) {
		v.errf(1, "fleet shards %d out of range [1, %d]", f.Shards, f.Machines)
	}
	for i := range f.Guests {
		g := &f.Guests[i]
		if _, dup := v.specs[g.Name]; dup {
			v.errf(g.Line, "duplicate guest spec %q", g.Name)
			continue
		}
		if g.Count < 0 {
			v.errf(g.Line, "guest %q count must be >= 0", g.Name)
		}
		v.specs[g.Name] = g
		v.totals[g.Name] = g.Count
		switch g.Traffic.Kind {
		case "downloads":
			if g.App.Kind != "fileserver" {
				v.errf(g.Line, "guest %q: downloads traffic needs a fileserver app, not %q", g.Name, g.App.Kind)
			}
		case "probe-stream", "pings", "":
		}
		if g.Traffic.Kind != "" && g.Traffic.PeriodMS <= 0 {
			v.errf(g.Line, "guest %q: traffic period_ms must be positive", g.Name)
		}
		if g.App.Kind == "beacon" && g.App.PeriodMS <= 0 {
			v.errf(g.Line, "guest %q: beacon period_ms must be positive", g.Name)
		}
		if g.App.Kind == "tenant" {
			if a := sc.Arrivals; a == nil || a.Guest != g.Name || g.Count != 0 || g.Traffic.Kind != "" {
				v.errf(g.Line, "guest %q: a tenant spec is populated by arrivals only (name it in arrivals, count: 0, no traffic)", g.Name)
			}
			if g.App.Sink == "" {
				v.errf(g.Line, "guest %q: tenant app needs a sink", g.Name)
			}
		}
	}
	if len(f.Guests) == 0 {
		v.errf(1, "fleet needs at least one guest spec")
	}
	// Admit bursts extend each spec's instance total.
	for _, ev := range sc.Events {
		if ev.Action == "admit" || ev.Action == "saturate-disk" {
			if _, ok := v.specs[ev.Guest]; ok {
				v.totals[ev.Guest] += ev.Count
			}
		}
	}
	for _, seed := range sortedSeeds(sc.OutputDigests) {
		for _, g := range sortedGuests(sc.OutputDigests[seed]) {
			v.guestRef(1, g, fmt.Sprintf("output_digests seed %d", seed))
		}
	}
}

// sortedSeeds/sortedGuests order the digest-pin maps for deterministic
// validation reports.
func sortedSeeds(m map[uint64]map[string]string) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedGuests(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// guestRef checks a guest reference: a spec name (when the spec's total
// is 1) or "<spec>-<i>" with i under the spec's total.
func (v *validator) guestRef(line int, ref, what string) {
	if ref == "" {
		v.errf(line, "%s needs a guest", what)
		return
	}
	if spec, ok := v.specs[ref]; ok {
		if v.totals[spec.Name] > 1 {
			v.errf(line, "%s: guest spec %q has %d instances — reference one as %q etc.",
				what, ref, v.totals[spec.Name], ref+"-0")
		}
		return
	}
	if i := strings.LastIndexByte(ref, '-'); i > 0 {
		specName, idxStr := ref[:i], ref[i+1:]
		if spec, ok := v.specs[specName]; ok {
			idx, err := strconv.Atoi(idxStr)
			if err == nil && idx >= 0 && idx < v.totals[spec.Name] {
				return
			}
			v.errf(line, "%s: guest %q out of range (spec %q has %d instances)",
				what, ref, specName, v.totals[spec.Name])
			return
		}
	}
	v.errf(line, "%s references undeclared guest %q", what, ref)
}

func (v *validator) machineRef(line int, m int, what string) {
	if m < 0 || m >= v.sc.Fleet.Machines {
		v.errf(line, "%s: machine %d out of range (fleet has %d machines)", what, m, v.sc.Fleet.Machines)
	}
}

// linkEndpoint checks a fault endpoint: "machine:N", "guest:NAME" or a
// literal address.
func (v *validator) linkEndpoint(line int, s, what string) {
	if s == "" {
		v.errf(line, "%s needs from and to endpoints", what)
		return
	}
	if rest, ok := strings.CutPrefix(s, "machine:"); ok {
		m, err := strconv.Atoi(rest)
		if err != nil {
			v.errf(line, "%s: bad machine endpoint %q", what, s)
			return
		}
		v.machineRef(line, m, what)
		return
	}
	if rest, ok := strings.CutPrefix(s, "guest:"); ok {
		v.guestRef(line, rest, what)
	}
}

func (v *validator) arrivals() {
	a := v.sc.Arrivals
	if a == nil {
		return
	}
	if spec, ok := v.specs[a.Guest]; !ok {
		v.errf(a.Line, "arrivals reference undeclared guest %q", a.Guest)
	} else if spec.App.Kind != "tenant" {
		v.errf(a.Line, "arrivals guest %q must have app kind tenant, not %q", a.Guest, spec.App.Kind)
	}
	if a.Rate <= 0 || a.LifetimeMS <= 0 || a.PingMS <= 0 {
		v.errf(a.Line, "arrivals rate, lifetime_ms and ping_ms must be positive")
	}
	if a.Failures < 0 || a.Drains < 0 || a.Crashes < 0 {
		v.errf(a.Line, "arrivals failures, drains and crashes must be >= 0")
	}
	if v.sc.DurationMS <= 2000 {
		v.errf(a.Line, "arrivals need duration_ms above 2000 (the last two seconds drain)")
	}
}

func (v *validator) events() {
	sc := v.sc
	var prev int64
	for i, ev := range sc.Events {
		what := ev.Action + " event"
		if i > 0 && ev.AtMS < prev {
			v.errf(ev.Line, "events out of order: at_ms %d after %d", ev.AtMS, prev)
		}
		prev = ev.AtMS
		if ev.AtMS >= sc.DurationMS {
			v.errf(ev.Line, "%s at_ms %d is beyond the scenario duration %d", what, ev.AtMS, sc.DurationMS)
		}
		switch ev.Action {
		case "admit", "saturate-disk":
			if ev.Guest == "" {
				v.errf(ev.Line, "%s needs a guest spec", what)
			} else if spec, ok := v.specs[ev.Guest]; !ok {
				v.errf(ev.Line, "%s references undeclared guest %q", what, ev.Guest)
			} else if spec.App.Kind == "tenant" {
				v.errf(ev.Line, "%s: tenant spec %q is populated by arrivals only", what, ev.Guest)
			} else if ev.Action == "saturate-disk" && spec.App.DiskKB <= 0 {
				v.errf(ev.Line, "saturate-disk event: guest spec %q has no disk load (set app disk_kb)", ev.Guest)
			}
			if ev.Count < 1 {
				v.errf(ev.Line, "%s count must be >= 1", what)
			}
		case "evict", "migrate":
			v.guestRef(ev.Line, ev.Guest, what)
			if ev.Action == "migrate" {
				if ev.To == "" || ev.To == "auto" {
					break
				}
				m, err := strconv.Atoi(ev.To)
				if err != nil {
					v.errf(ev.Line, "migrate event: to must be \"auto\" or a machine index, got %q", ev.To)
					break
				}
				v.machineRef(ev.Line, m, what)
			}
		case "kill-replica":
			v.guestRef(ev.Line, ev.Guest, what)
			if ev.Slot < 0 || ev.Slot > 2 {
				v.errf(ev.Line, "kill-replica event: slot %d out of range [0, 2]", ev.Slot)
			}
		case "kill-machine":
			if !ev.Busiest {
				v.machineRef(ev.Line, ev.Machine, what)
			}
			if ev.Detected && !sc.Fleet.StallDetector {
				v.errf(ev.Line, "kill-machine event: detected kill needs fleet stall_detector: true")
			}
		case "drain", "undrain":
			v.machineRef(ev.Line, ev.Machine, what)
		case "inject-loss", "partition", "heal":
			v.linkEndpoint(ev.Line, ev.From, what)
			v.linkEndpoint(ev.Line, ev.ToAddr, what)
			if ev.Action == "inject-loss" && (ev.Prob < 0 || ev.Prob > 1) {
				v.errf(ev.Line, "inject-loss event: prob %v out of range [0, 1]", ev.Prob)
			}
		}
	}
}

func (v *validator) assertions() {
	for _, a := range v.sc.Assertions {
		what := a.Check + " assertion"
		switch a.Check {
		case "lockstep":
			if a.Guest != "" && a.Guest != "all" {
				v.guestRef(a.Line, a.Guest, what)
			}
		case "journal":
			if a.Guest != "all" {
				v.guestRef(a.Line, a.Guest, what)
			}
		case "placement":
		case "coresident":
			if len(a.Guests) != 2 {
				v.errf(a.Line, "coresident assertion needs exactly 2 guests, got %d", len(a.Guests))
				break
			}
			for _, g := range a.Guests {
				v.guestRef(a.Line, g, what)
			}
		case "stats":
			if !statsFields[a.Field] {
				v.errf(a.Line, "stats assertion: unknown field %q", a.Field)
			}
			if a.Min == nil && a.Max == nil {
				v.errf(a.Line, "stats assertion needs min and/or max")
			}
		case "oplog":
			if !opKinds[a.Op] {
				v.errf(a.Line, "oplog assertion: unknown op %q", a.Op)
			}
			if a.NotFired && (a.Min != nil || a.Max != nil || a.WithinMS > 0) {
				v.errf(a.Line, "oplog assertion: not_fired excludes min/max/within_ms")
			}
			if !a.NotFired && a.Min == nil && a.Max == nil {
				v.errf(a.Line, "oplog assertion needs min and/or max (or not_fired: true)")
			}
			if a.WithinMS > 0 && (a.Op != "fail" || a.Detected == nil || !*a.Detected) {
				v.errf(a.Line, "oplog assertion: within_ms needs op: fail with detected: true")
			}
		case "metric":
			if a.Name == "" {
				v.errf(a.Line, "metric assertion needs a name")
			}
			if a.Min == nil && a.Max == nil {
				v.errf(a.Line, "metric assertion needs min and/or max")
			}
		}
	}
}
