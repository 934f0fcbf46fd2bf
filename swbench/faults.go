package main

import (
	"fmt"
	"sort"

	"stopwatch/internal/controlplane"
	"stopwatch/internal/netsim"
	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
)

// repairDelay is how long a killed machine stays down after its
// evacuation completes.
const repairDelay = 100 * sim.Millisecond

// evict folds a departing guest's counters, then evicts it.
func (h *harness) evict(id string) {
	if g, ok := h.c.Guest(id); ok {
		h.evicted.add(guestCounts(g))
	}
	h.apply(controlplane.EvictOp{GuestID: id})
}

// eligible returns the machines a kill or drain may target: alive,
// undrained, hosting residents, none of them mid-operation.
func (h *harness) eligible() []int {
	pool := h.cp.Pool()
	var out []int
	for m := 0; m < h.s.Hosts; m++ {
		if pool.Drained(m) || h.cp.Failed(m) || h.c.Host(m).Failed() || h.open[m] != nil {
			continue
		}
		res := pool.Residents(m)
		if len(res) == 0 || h.anyBusy(res) {
			continue
		}
		out = append(out, m)
	}
	return out
}

func (h *harness) anyBusy(ids []string) bool {
	for _, id := range ids {
		if _, busy := h.cp.InFlight(id); busy {
			return true
		}
	}
	return false
}

// faultStep is one entry of the fault script: it starts no earlier than
// at and calls done once its effects have settled.
type faultStep struct {
	at  sim.Time
	run func(done func())
}

// scheduleFaults runs the spec's kills, drain and migration one at a
// time, in time order: each starts at its scripted time or when the
// previous one has settled, whichever is later, so faults never overlap.
func (h *harness) scheduleFaults() {
	s := h.s
	var steps []faultStep
	for _, k := range s.Kills {
		steps = append(steps, faultStep{k.At - k.LossLead, func(done func()) { h.kill(k, done) }})
	}
	if s.Drain != nil {
		steps = append(steps, faultStep{s.Drain.At, h.drain})
	}
	if s.Migrate != nil {
		steps = append(steps, faultStep{s.Migrate.At, h.migrate})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	var next func(i int)
	next = func(i int) {
		if i == len(steps) {
			return
		}
		h.ctrl.At(max(steps[i].at, h.ctrl.Now()), "swbench:fault", func() {
			steps[i].run(func() { next(i + 1) })
		})
	}
	next(0)
}

// kill picks a victim, optionally cuts its proposal links for the lossy
// lead window, and kills its VMM at the data plane only: the stall
// detector must notice and drive fail → reconfigure → evacuate. done runs
// once the machine has been evacuated and repaired.
func (h *harness) kill(k Kill, done func()) {
	cands := h.eligible()
	if len(cands) == 0 {
		h.fail("kill at %v: no eligible machine", k.At)
		done()
		return
	}
	rec := &killRec{machine: cands[k.Pick%len(cands)], done: done}
	h.kills = append(h.kills, rec)
	h.open[rec.machine] = rec
	if k.Lossy {
		h.cutProposals(rec, k.LossProb)
	}
	h.ctrl.After(k.LossLead, "swbench:kill", func() {
		rec.at = h.ctrl.Now()
		if err := h.c.FailMachine(rec.machine); err != nil {
			h.fail("kill machine %d: %v", rec.machine, err)
		}
	})
}

// cutProposals injects loss on the victim's proposal links toward one
// survivor of each resident guest, so in-flight proposals reach one
// survivor and not the other when the victim dies.
func (h *harness) cutProposals(rec *killRec, p float64) {
	pool := h.cp.Pool()
	victim := fmt.Sprintf("host%d", rec.machine)
	for _, id := range pool.Residents(rec.machine) {
		tri, _ := pool.Triangle(id)
		survivor := -1
		for _, m := range tri {
			if m != rec.machine && (survivor < 0 || m < survivor) {
				survivor = m
			}
		}
		src := netsim.Addr("prop:" + victim + "/" + id)
		dst := netsim.Addr(fmt.Sprintf("dom0:host%d", survivor))
		if err := h.c.Net().InjectLoss(src, dst, p); err != nil {
			h.fail("inject loss %s→%s: %v", src, dst, err)
			continue
		}
		rec.lossy = append(rec.lossy, src, dst)
	}
}

// onEvent follows the detector pipeline: a detected FailOp starting marks
// detection, the EvacuateOp finishing marks recovery; the machine is then
// healed and repaired.
func (h *harness) onEvent(ev controlplane.Event) {
	switch op := ev.Op.(type) {
	case controlplane.FailOp:
		if rec := h.open[op.Machine]; rec != nil && op.Detected && ev.Kind == controlplane.OpStarted && !rec.detected {
			rec.detected, rec.detectAt = true, ev.At
		}
	case controlplane.EvacuateOp:
		rec := h.open[op.Machine]
		if rec == nil || (ev.Kind != controlplane.OpCompleted && ev.Kind != controlplane.OpFailed) {
			return
		}
		rec.evacuated, rec.evacDoneAt = true, ev.At
		delete(h.open, op.Machine)
		for i := 0; i < len(rec.lossy); i += 2 {
			if err := h.c.Net().InjectLoss(rec.lossy[i], rec.lossy[i+1], -1); err != nil {
				h.fail("heal %s→%s: %v", rec.lossy[i], rec.lossy[i+1], err)
			}
		}
		m := op.Machine
		h.ctrl.After(repairDelay, "swbench:repair", func() {
			// A guest still stuck on the machine (a failed evacuation,
			// counted by op_fail_frac) keeps it out of service.
			if len(h.cp.Pool().Residents(m)) == 0 {
				h.apply(controlplane.RepairOp{Machine: m})
			}
			rec.done()
		})
	}
}

// drain takes a seeded machine out for maintenance and returns it at the
// scripted time, once its residents have moved.
func (h *harness) drain(done func()) {
	cands := h.eligible()
	if len(cands) == 0 {
		h.fail("drain: no eligible machine")
		done()
		return
	}
	m := cands[h.s.Drain.Pick%len(cands)]
	h.apply(controlplane.DrainOp{Machine: m, Done: func(oc *controlplane.Outcome) {
		if oc.Rejected() {
			done()
			return
		}
		h.ctrl.At(max(h.s.Drain.Until, h.ctrl.Now()), "swbench:undrain", func() {
			h.apply(controlplane.UndrainOp{Machine: m})
			done()
		})
	}})
}

// migrate moves one replica of a seeded idle guest to a host that keeps
// its triangle edge-disjoint.
func (h *harness) migrate(done func()) {
	pool := h.cp.Pool()
	var ids []string
	for _, id := range pool.IDs() {
		if _, busy := h.cp.InFlight(id); !busy {
			ids = append(ids, id)
		}
	}
	for i := range ids {
		id := ids[(h.s.Migrate.Pick+i)%len(ids)]
		tri, _ := pool.Triangle(id)
		if to := h.migrationTarget(id, tri); to >= 0 {
			h.apply(controlplane.MigrateOp{GuestID: id, From: tri[0], To: to, Done: func(*controlplane.Outcome) { done() }})
			return
		}
	}
	h.fail("migrate: no guest has a feasible destination")
	done()
}

// migrationTarget finds a healthy host outside tri with spare capacity
// whose edges to tri's two other members are unused by any resident.
func (h *harness) migrationTarget(id string, tri placement.Triangle) int {
	pool := h.cp.Pool()
	used := map[[2]int]bool{}
	edge := func(a, b int) [2]int { return [2]int{min(a, b), max(a, b)} }
	for _, gid := range pool.IDs() {
		t, _ := pool.Triangle(gid)
		if gid == id {
			continue
		}
		used[edge(t[0], t[1])], used[edge(t[0], t[2])], used[edge(t[1], t[2])] = true, true, true
	}
	for m := 0; m < h.s.Hosts; m++ {
		if m == tri[0] || m == tri[1] || m == tri[2] || pool.Drained(m) || h.cp.Failed(m) || h.c.Host(m).Failed() {
			continue
		}
		if pool.Load(m) < pool.Capacity() && !used[edge(m, tri[1])] && !used[edge(m, tri[2])] {
			return m
		}
	}
	return -1
}

// samplePending tracks the deepest event queue seen at a slice boundary.
func (h *harness) samplePending() {
	co := h.c.Coordinator()
	n := co.Ctrl().Pending()
	for _, l := range co.Shards() {
		n += l.Pending()
	}
	h.pendingMax = max(h.pendingMax, n)
}
