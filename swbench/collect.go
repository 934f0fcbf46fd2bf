package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"

	"stopwatch"
	"stopwatch/internal/core"
)

// collect reads the finished run's public counters, runs the correctness
// checks, and returns the simulated metrics.
func (h *harness) collect() simResult {
	var r simResult
	toMS := func(d int64) float64 { return float64(d) / 1e6 }

	for _, t := range h.pings.rtts {
		r.RTT = append(r.RTT, toMS(int64(t)))
	}
	r.Requests += h.pingsSent
	r.Unanswered += h.pingsSent - len(h.pings.rtts)
	r.DupReplies = h.pings.dups
	for _, d := range h.dls {
		for _, t := range d.lat {
			r.Fetch = append(r.Fetch, toMS(int64(t)))
		}
		r.Requests += d.next
		r.Unanswered += d.next - len(d.lat)
	}
	if h.nfs != nil {
		for _, t := range h.nfs.Latencies() {
			r.NFS = append(r.NFS, toMS(int64(t)))
		}
		r.Requests += int(h.nfs.Issued())
		r.Unanswered += int(h.nfs.Issued() - h.nfs.Completed())
	}

	for _, k := range h.kills {
		if !k.detected || !k.evacuated {
			h.fail("kill of machine %d at %v: detected=%v evacuated=%v", k.machine, k.at, k.detected, k.evacuated)
			continue
		}
		r.Recovery = append(r.Recovery, toMS(int64(k.evacDoneAt-k.at)))
		r.Detect = append(r.Detect, toMS(int64(k.detectAt-k.at)))
		r.Evacuate = append(r.Evacuate, toMS(int64(k.evacDoneAt-k.detectAt)))
	}
	r.Kills = len(h.kills)
	if want := len(h.s.Kills); r.Kills < want {
		h.fail("%d of %d scripted kills ran", r.Kills, want)
	}

	log := h.cp.Log()
	for _, oc := range log {
		r.Ops++
		if !oc.Done() || oc.Err != nil {
			r.OpsFailed++
			if len(h.failedOps) < 5 {
				h.failedOps = append(h.failedOps, oc.String())
			}
		}
		if oc.Err != nil && errors.Is(oc.Err, stopwatch.ErrNoFeasibleHost) {
			r.Refused++
		}
	}
	st := stopwatch.FoldOpStats(log)
	r.Reconcile = [3]int{st.ReconcileRounds, st.ReconcileRepairs, st.ReconcileRetries}
	r.QuiesceRetries = st.DrainRetries
	if err := h.cp.Verify(); err != nil {
		h.fail("placement verify: %v", err)
	}

	r.Layer = h.evicted
	for _, id := range h.c.GuestIDs() {
		g, _ := h.c.Guest(id)
		r.Guests++
		if err := auditLockstep(g); err != nil {
			r.Diverged++
			h.lockstepErrs = append(h.lockstepErrs, err.Error())
		}
		r.Layer.add(guestCounts(g))
	}

	rep := h.c.Report()
	r.IngressReplicated, r.EgressForwarded, r.EgressStuck = rep.IngressReplicated, rep.EgressForwarded, rep.EgressStuck
	ns := h.c.Net().Stats()
	r.Delivered, r.Lost = ns.Delivered, ns.Lost
	r.Events = h.c.Coordinator().FiredTotal()
	for _, cl := range h.clients {
		r.ClientPkts += cl.PacketsSent() + cl.PacketsReceived()
	}
	return r
}

// auditLockstep checks a live guest's replicas: frozen (crashed or
// abandoned) replicas are excluded and the rest compared on their common
// output prefix; a guest that had a replica replaced is compared on the
// common prefix (its replacement replayed a journal); any other guest must
// match exactly.
func auditLockstep(g *core.Guest) error {
	var frozen []int
	for _, r := range g.Replicas() {
		if r.Runtime().Stopped() {
			frozen = append(frozen, r.Slot())
		}
	}
	switch {
	case len(frozen) > 0:
		return g.CheckLockstepPrefixExcluding(frozen...)
	case g.Replaced > 0:
		return g.CheckLockstepPrefix()
	default:
		return g.CheckLockstep()
	}
}

// implCounts are simulator-implementation counters that may differ between
// shard counts (queues are per loop; cross-shard packets wait in outboxes),
// so they stay out of the fingerprint.
func (h *harness) implCounts() (eventAllocs uint64, pendingMax int) {
	co := h.c.Coordinator()
	eventAllocs = co.Ctrl().EventAllocs()
	for _, l := range co.Shards() {
		eventAllocs += l.EventAllocs()
	}
	return eventAllocs, h.pendingMax
}

// fingerprint digests the run: events, deliveries, the op log and every
// simulated metric.
func (h *harness) fingerprint(r simResult) fingerprint {
	oplog := fnv.New64a()
	_, _ = oplog.Write([]byte(stopwatch.FormatOpLog(h.cp.Log())))
	sim := fnv.New64a()
	_, _ = fmt.Fprintf(sim, "%+v", r)
	return fingerprint{Events: r.Events, Delivered: r.Delivered, OpLog: oplog.Sum64(), Sim: sim.Sum64()}
}

// gcDelta is the Go runtime's allocation and collection work over a span.
type gcDelta struct {
	Cycles                    uint32
	PauseNs, AllocB, AllocObj uint64
}

func readGC() gcDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcDelta{Cycles: ms.NumGC, PauseNs: ms.PauseTotalNs, AllocB: ms.TotalAlloc, AllocObj: ms.Mallocs}
}

func (a gcDelta) sub(b gcDelta) gcDelta {
	return gcDelta{Cycles: a.Cycles - b.Cycles, PauseNs: a.PauseNs - b.PauseNs, AllocB: a.AllocB - b.AllocB, AllocObj: a.AllocObj - b.AllocObj}
}
