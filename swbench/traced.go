package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"stopwatch/internal/controlplane"
	"stopwatch/internal/placement"
)

// measureTraced is the traced run: it alternates untraced repetitions
// (counts and untraced host time) with traced ones (spans plus a CPU
// profile) until the budget is spent, and reports the per-layer metrics.
func measureTraced(s *Spec, o options, w io.Writer) (*result, error) {
	tr := newTracer()
	var plain, traced []*rep
	var profs [][]byte
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < o.seconds {
		var buf *bytes.Buffer
		var rtr *tracer
		if len(plain) > len(traced) {
			buf, rtr = &bytes.Buffer{}, tr
		}
		r, err := runRep(s, rtr, buf)
		if err != nil {
			return nil, err
		}
		if rtr == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
			profs = append(profs, buf.Bytes())
		}
		if r != plain[0] {
			if err := sameSim(plain[0], r); err != nil {
				r.Failures = append(r.Failures, "repetition vs the first untraced one: "+err.Error())
			}
		}
	}
	r0 := plain[0]
	res := baseResult(s, append(plain, traced...), w)

	replayUS := replayPlacement(s, r0.PoolOps, tr)

	var samples []sample
	for _, raw := range profs {
		smp, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		samples = append(samples, smp...)
	}
	shares := foldShares(samples)

	stem := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", s.Workload, s.Seed))
	if err := writeSpans(stem+"-spans.json", tr.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if len(profs) > 0 {
		if err := os.WriteFile(stem+".pprof", profs[0], 0o644); err != nil {
			return nil, fmt.Errorf("write profile: %w", err)
		}
	}

	sm := r0.Sim
	events := float64(sm.Events)
	pq := func(v []float64, q float64) float64 { return percentile(v, q).Value }
	applyUS := durations(tr.spans, "controlplane:apply")
	for i := range applyUS {
		applyUS[i] /= 1e3
	}
	self := selfTimes(tr.spans)
	sliceSelf := selfShare(tr.spans, self, "run:slice", "run:slice")
	applyShare := selfShare(tr.spans, self, "controlplane:apply", "setup:cluster", "setup:admit", "run:slice")
	ms := []metric{
		{"sim.events", "count", events, "Coordinator().FiredTotal"},
		{"sim.ns_per_event", "ns", medianOf(plain, runS) * 1e9 / max(events, 1), "untraced run_s / events"},
		{"sim.run_wall_s", "s", medianOf(plain, func(r *rep) float64 { return r.RunWallS }), "untraced wall time of run_s's span"},
		{"sim.pending_max", "count", float64(r0.PendingMax), "deepest queue at a slice boundary"},
		{"sim.event_allocs", "count", float64(r0.EventAllocs), "Loop.EventAllocs, all loops"},
		{"sim.self_share", "ratio", shares["sim"], "CPU profile"},
		{"runtime.sched_share", "ratio", shares["runtime"], "CPU profile"},
		{"netsim.delivered", "count", float64(sm.Delivered), ""},
		{"netsim.lost", "count", float64(sm.Lost), ""},
		{"netsim.send_ns", "ns", median(durations(tr.spans, "netsim:send")), "median ping Net().Send span"},
		{"netsim.self_share", "ratio", shares["netsim"], "CPU profile"},
		{"vmm.net_interrupts", "count", float64(sm.Layer.netIRQ), "all replicas"},
		{"vmm.disk_interrupts", "count", float64(sm.Layer.diskIRQ), "all replicas"},
		{"vmm.timer_interrupts", "count", float64(sm.Layer.timerIRQ), "all replicas"},
		{"vmm.divergences", "count", float64(sm.Layer.divergences), "synchrony violations"},
		{"vmm.replayed_records", "count", float64(sm.Layer.replayed), ""},
		{"vmm.checkpoints", "count", float64(sm.Layer.checkpoints), ""},
		{"vmm.self_share", "ratio", shares["vmm"], "CPU profile"},
		{"gateway.ingress_replicated", "count", float64(sm.IngressReplicated), ""},
		{"gateway.egress_forwarded", "count", float64(sm.EgressForwarded), ""},
		{"gateway.egress_stuck", "count", float64(sm.EgressStuck), ""},
		{"multicast.self_share", "ratio", shares["multicast"], "CPU profile"},
		{"gateway.self_share", "ratio", shares["gateway"], "CPU profile"},
		{"transport.client_pkts", "count", float64(sm.ClientPkts), "sent + received"},
		{"transport.self_share", "ratio", shares["transport"], "CPU profile"},
		{"guest.self_share", "ratio", shares["guest"], "CPU profile"},
		{"apps.self_share", "ratio", shares["apps"], "CPU profile"},
		{"core.reconcile_rounds", "count", float64(sm.Reconcile[0]), ""},
		{"core.reconcile_repairs", "count", float64(sm.Reconcile[1]), ""},
		{"core.reconcile_retries", "count", float64(sm.Reconcile[2]), ""},
		{"core.self_share", "ratio", shares["core"], "CPU profile"},
		{"controlplane.ops", "count", float64(sm.Ops), ""},
		{"controlplane.apply_p50_us", "us", pq(applyUS, .5), percentile(applyUS, .5).String()},
		{"controlplane.apply_p90_us", "us", pq(applyUS, .9), percentile(applyUS, .9).String()},
		{"controlplane.quiesce_retries", "count", float64(sm.QuiesceRetries), ""},
		{"controlplane.detect_p50_ms", "ms", pq(sm.Detect, .5), percentile(sm.Detect, .5).String()},
		{"controlplane.evacuate_p50_ms", "ms", pq(sm.Evacuate, .5), percentile(sm.Evacuate, .5).String()},
		{"controlplane.self_share", "ratio", applyShare, "Apply spans' self time / set-up and run time"},
		{"placement.admit_us", "us", replayUS, "standalone Pool replay, per op"},
		{"placement.refused", "count", float64(sm.Refused), ""},
		{"placement.self_share", "ratio", shares["placement"], "CPU profile"},
		{"gc.cycles", "count", float64(r0.GC.Cycles), "untraced run"},
		{"gc.pause_ms", "ms", float64(r0.GC.PauseNs) / 1e6, "untraced run"},
		{"gc.cpu_share", "ratio", shares["gc"], "CPU profile"},
		{"gc.alloc_mb", "MiB", float64(r0.GC.AllocB) / (1 << 20), "untraced run"},
		{"gc.allocs_per_event", "count", float64(r0.GC.AllocObj) / max(events, 1), "untraced run"},
		{"setup.cluster_s", "s", medianOf(traced, func(r *rep) float64 { return r.ClusterS }), "traced"},
		{"setup.admit_s", "s", medianOf(traced, func(r *rep) float64 { return r.AdmitS }), "traced"},
		{"trace.overhead", "ratio", medianOf(traced, runS) / medianOf(plain, runS), "median traced run_s / median untraced run_s"},
		{"trace.slice_self_share", "ratio", sliceSelf, "Run slice time outside Apply/Send spans"},
		{"lockstep_fail_frac", "ratio", frac(sm.Diverged, sm.Guests), fmt.Sprintf("%d of %d guests", sm.Diverged, sm.Guests)},
	}
	for _, m := range simMetrics(r0) {
		switch m.Name {
		case "fetch_p50_ms", "fetch_p90_ms", "nfs_p50_ms", "nfs_p99_ms", "recovery_p50_ms":
			ms = append(ms, m)
		}
	}
	res.metrics = ms
	fmt.Fprintf(w, "trace: %d spans, %d profile samples, written under %s\n", len(tr.spans), len(samples), o.outDir)
	printMetrics(w, "lay", ms)
	return res, nil
}

// selfShare is the total self time of the spans named name over the total
// duration of the spans named in over.
func selfShare(spans []span, self []int64, name string, over ...string) float64 {
	var num, den int64
	for i, s := range spans {
		if s.Name == name {
			num += self[i]
		}
		for _, o := range over {
			if s.Name == o {
				den += s.End - s.Start
			}
		}
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// poolOp is one placement-pool mutation of a run, kept as plain data so a
// finished run's cluster is not retained.
type poolOp struct {
	kind         controlplane.OpKind
	id           string
	machine, dst int // machine (drain, fail, repair, replace's dead host, migrate source); migrate target
}

// poolOps lists the run's pool mutations in op-log order.
func poolOps(log []*controlplane.Outcome) []poolOp {
	var ops []poolOp
	for _, oc := range log {
		if oc.Rejected() {
			continue
		}
		switch op := oc.Op.(type) {
		case controlplane.AdmitOp:
			ops = append(ops, poolOp{kind: op.Kind(), id: op.GuestID})
		case controlplane.EvictOp:
			ops = append(ops, poolOp{kind: op.Kind(), id: op.GuestID})
		case controlplane.ReplaceOp:
			ops = append(ops, poolOp{kind: op.Kind(), id: op.GuestID, machine: op.DeadHost})
		case controlplane.MigrateOp:
			ops = append(ops, poolOp{kind: op.Kind(), id: op.GuestID, machine: op.From, dst: op.To})
		case controlplane.DrainOp:
			ops = append(ops, poolOp{kind: op.Kind(), machine: op.Machine})
		case controlplane.FailOp:
			ops = append(ops, poolOp{kind: op.Kind(), machine: op.Machine})
		case controlplane.UndrainOp:
			ops = append(ops, poolOp{kind: op.Kind(), machine: op.Machine})
		case controlplane.RepairOp:
			ops = append(ops, poolOp{kind: op.Kind(), machine: op.Machine})
		}
	}
	return ops
}

// replayPlacement replays a run's pool mutations — admissions, releases,
// drains, re-homes and migrations, in op-log order — on a standalone
// placement.Pool of the same size, repeatedly for at least 50ms, and
// returns the host microseconds per replayed op. Refusals are part of the
// replayed work, so their errors are dropped.
func replayPlacement(s *Spec, ops []poolOp, tr *tracer) float64 {
	if len(ops) == 0 {
		return 0
	}
	sp := tr.begin("placement:replay")
	defer tr.end(sp)
	start := time.Now()
	rounds := 0
	for rounds < 3 || time.Since(start) < 50*time.Millisecond {
		p, err := placement.NewPool(s.Hosts, s.Capacity)
		if err != nil {
			return 0
		}
		for _, op := range ops {
			switch op.kind {
			case controlplane.KindAdmit:
				_, _ = p.Admit(op.id)
			case controlplane.KindEvict:
				_, _ = p.Release(op.id)
			case controlplane.KindReplace:
				_, _, _ = p.Rehome(op.id, op.machine)
			case controlplane.KindMigrate:
				_, _ = p.RehomeTo(op.id, op.machine, op.dst)
			case controlplane.KindDrain, controlplane.KindFail:
				_ = p.Drain(op.machine)
			case controlplane.KindUndrain, controlplane.KindRepair:
				_ = p.Undrain(op.machine)
			}
		}
		rounds++
	}
	return float64(time.Since(start).Microseconds()) / float64(rounds*len(ops))
}
