// The open-loop driver: Poisson tenant arrivals with exponential
// lifetimes, exponential-period client pings, and replica failures,
// machine drains and machine crashes at random times on random victims.
// Every draw comes from one seeded stream, in a fixed order, so a run
// replays byte-identically. The random choosers only pick victims: each
// injection goes through the same path as its scripted event.

package scenario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"stopwatch"
)

// startArrivals draws the arrival, failure, drain and crash schedules and
// starts the pings. The draw order is part of the pinned behaviour.
func (r *runner) startArrivals() {
	a := r.sc.Arrivals
	r.rng = r.c.Source().Stream("churn-driver")
	r.windowEnd = stopwatch.Millis(float64(r.sc.DurationMS - 2000))
	end := r.windowEnd
	r.scheduleArrival()
	// Faults land in the middle of the window so every recovery finishes
	// inside the run.
	r.spread(a.Failures, end/5, end*7/10, "scenario:failure", r.randomFailure)
	r.spread(a.Drains, end/4, end*3/5, "scenario:drain", r.randomDrain)
	r.spread(a.Crashes, end/4, end*3/5, "scenario:crash", r.randomCrash)
	loop := r.c.Loop()
	from := stopwatch.Addr(a.From)
	var tick func()
	tick = func() {
		if loop.Now() >= end {
			return
		}
		for _, id := range r.resident {
			r.c.Net().Send(&stopwatch.Packet{Src: from, Dst: stopwatch.GuestAddr(id), Size: 200, Kind: "ping"})
		}
		loop.After(r.rng.ExpDur(stopwatch.Millis(a.PingMS)), "scenario:ping", tick)
	}
	loop.After(stopwatch.Millis(100), "scenario:ping", tick)
}

// spread schedules n calls of fn at uniform times in [lo, hi).
func (r *runner) spread(n int, lo, hi stopwatch.Time, name string, fn func()) {
	times := make([]stopwatch.Time, n)
	for i := range times {
		times[i] = lo + r.rng.UniformDur(0, hi-lo)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, at := range times {
		r.c.Loop().At(at, name, fn)
	}
}

// retry runs fn again a second from now: the chooser found no victim.
func (r *runner) retry(name string, fn func()) { r.c.Loop().After(stopwatch.Second, name, fn) }

func (r *runner) scheduleArrival() {
	at := r.c.Loop().Now() + r.rng.ExpDur(stopwatch.Seconds(1/r.sc.Arrivals.Rate))
	if at >= r.windowEnd {
		return
	}
	r.c.Loop().At(at, "scenario:arrival", func() {
		r.arrive()
		r.scheduleArrival()
	})
}

// arrive admits the next tenant. An admitted tenant departs after an
// exponential lifetime if that falls inside the window.
func (r *runner) arrive() {
	a := r.sc.Arrivals
	idx := r.nextIdx[a.Guest]
	r.nextIdx[a.Guest]++
	id := fmt.Sprintf("%s-%03d", a.Guest, idx)
	// Burst periods vary deterministically per tenant: 4..11 ms.
	period := stopwatch.Virtual(4+(idx+1)%8) * stopwatch.Virtual(stopwatch.Millisecond)
	deadline := stopwatch.Virtual(r.windowEnd)
	sink := stopwatch.Addr(r.spec(a.Guest).App.Sink)
	factory := func() stopwatch.App { return &tenantApp{period: period, deadline: deadline, sink: sink} }
	// Done fires inside Apply unless the planner has to migrate first.
	r.cp.Apply(stopwatch.AdmitOp{GuestID: id, Factory: factory, Done: func(oc *stopwatch.Outcome) {
		if oc.Err != nil {
			if !errors.Is(oc.Err, stopwatch.ErrNoFeasibleHost) {
				r.failf("admit %s: %v", id, oc.Err)
			}
			return
		}
		r.resident = append(r.resident, id)
		sort.Strings(r.resident)
		if at := r.c.Loop().Now() + r.rng.ExpDur(stopwatch.Millis(a.LifetimeMS)); at < r.windowEnd {
			r.c.Loop().At(at, "scenario:departure", func() { r.evict(id, stopwatch.Millis(500), 0) })
		}
	}})
}

// spec returns the declared guest spec (the validator guarantees it).
func (r *runner) spec(name string) *GuestSpec {
	for i := range r.sc.Fleet.Guests {
		if g := &r.sc.Fleet.Guests[i]; g.Name == name {
			return g
		}
	}
	return nil
}

func (r *runner) dropResident(id string) {
	for i, have := range r.resident {
		if have == id {
			r.resident = append(r.resident[:i], r.resident[i+1:]...)
			return
		}
	}
}

// randomFailure kills a random replica of a random resident tenant that
// is fully live, never replaced and not mid-operation.
func (r *runner) randomFailure() {
	if len(r.resident) == 0 {
		r.retry("scenario:failure", r.randomFailure)
		return
	}
	id := r.resident[r.rng.Intn(len(r.resident))]
	g, ok := r.c.Guest(id)
	if !ok || g.Replaced > 0 {
		r.retry("scenario:failure", r.randomFailure)
		return
	}
	if _, busy := r.cp.InFlight(id); busy || len(frozenSlots(g)) > 0 {
		r.retry("scenario:failure", r.randomFailure)
		return
	}
	r.killReplica(g, r.rng.Intn(g.NumReplicas()))
}

// randomDrain takes a random undrained machine down for an exponential
// maintenance window, unless that would leave five machines or fewer.
func (r *runner) randomDrain() {
	var candidates []int
	for m := 0; m < r.sc.Fleet.Machines; m++ {
		if !r.cp.Pool().Drained(m) {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) <= 5 {
		return
	}
	r.drain(candidates[r.rng.Intn(len(candidates))], r.twoSecondWindow)
}

// randomCrash kills a random healthy machine with residents, none of them
// mid-operation, preferring machines hosting two or more guests; it waits
// while that would leave five live machines or fewer. The machine is
// repaired an exponential window after its evacuation.
func (r *runner) randomCrash() {
	var candidates, rich []int
	live := 0
	for m := 0; m < r.sc.Fleet.Machines; m++ {
		if r.cp.Pool().Drained(m) || r.cp.Failed(m) || r.c.Host(m).Failed() {
			continue
		}
		live++
		residents := r.cp.Pool().Residents(m)
		if len(residents) == 0 || r.anyInFlight(residents) {
			continue
		}
		candidates = append(candidates, m)
		if len(residents) >= 2 {
			rich = append(rich, m)
		}
	}
	if live <= 5 || len(candidates) == 0 {
		r.retry("scenario:crash", r.randomCrash)
		return
	}
	if len(rich) > 0 {
		candidates = rich
	}
	m := candidates[r.rng.Intn(len(candidates))]
	r.killMachine(m, r.sc.Fleet.StallDetector, r.twoSecondWindow)
}

func (r *runner) anyInFlight(ids []string) bool {
	for _, id := range ids {
		if _, busy := r.cp.InFlight(id); busy {
			return true
		}
	}
	return false
}

// twoSecondWindow draws a maintenance or reboot window.
func (r *runner) twoSecondWindow() stopwatch.Time { return r.rng.ExpDur(2 * stopwatch.Second) }

// auditResidents runs the strict end-of-run lockstep audit over the
// resident arrival tenants and folds in their journal telemetry.
func (r *runner) auditResidents() {
	for _, id := range r.resident {
		g, ok := r.c.Guest(id)
		if !ok {
			continue
		}
		js := g.JournalStats()
		r.tally.Checkpoints += js.Checkpoints
		r.tally.TruncatedRecords += js.TruncatedRecords
		r.tally.TruncatedBytes += js.TruncatedBytes
		degraded, err := auditLockstep(g, true)
		switch {
		case err != nil:
			r.defect(&r.tally.Diverged, "lockstep %s at end of run: %v", id, err)
		case degraded:
			r.tally.Degraded++
		default:
			r.tally.Lockstep++
		}
		r.tally.Divergences += g.Divergences()
	}
}

// tenantApp is the arrival tenants' workload: periodic compute+disk+send
// bursts and an echo for every client ping, both gated on a virtual-time
// deadline so all replicas quiesce identically before the final audit.
type tenantApp struct {
	period   stopwatch.Virtual
	deadline stopwatch.Virtual
	sink     stopwatch.Addr

	bursts int64
	echoes int64
}

var (
	_ stopwatch.App         = (*tenantApp)(nil)
	_ stopwatch.Snapshotter = (*tenantApp)(nil)
)

func (a *tenantApp) Boot(ctx stopwatch.Ctx) { ctx.SetTimer(0, "burst") }

func (a *tenantApp) OnTimer(ctx stopwatch.Ctx, tag string) {
	if tag != "burst" || ctx.Clock().Now() >= a.deadline {
		return
	}
	a.bursts++
	ctx.Compute(400_000)
	if a.bursts%4 == 0 {
		ctx.DiskRead("t", 16<<10)
	}
	ctx.Send(a.sink, 200, a.bursts)
	ctx.SetTimer(a.period, "burst")
}

func (a *tenantApp) OnPacket(ctx stopwatch.Ctx, p stopwatch.Payload) {
	if ctx.Clock().Now() >= a.deadline {
		return
	}
	a.echoes++
	ctx.Compute(50_000)
	ctx.Send(p.Src, 128, a.echoes)
}

func (a *tenantApp) OnDiskDone(stopwatch.Ctx, stopwatch.DiskDone) {}

// SnapshotAppend/RestoreSnapshot implement stopwatch.Snapshotter: the
// mutable state is just the two counters (period, deadline and sink are
// rebuilt identically by the factory), so checkpointed journals truncate
// and a replacement restores instead of replaying the tenant's lifetime.
func (a *tenantApp) SnapshotAppend(buf []byte) []byte {
	buf = binary.AppendVarint(buf, a.bursts)
	return binary.AppendVarint(buf, a.echoes)
}

func (a *tenantApp) RestoreSnapshot(data []byte) error {
	bursts, n := binary.Varint(data)
	if n <= 0 {
		return fmt.Errorf("tenant snapshot: bad bursts varint")
	}
	echoes, m := binary.Varint(data[n:])
	if m <= 0 || n+m != len(data) {
		return fmt.Errorf("tenant snapshot: bad echoes varint")
	}
	a.bursts, a.echoes = bursts, echoes
	return nil
}
