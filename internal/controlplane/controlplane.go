// Package controlplane is the online orchestrator over the StopWatch
// cluster: it owns the live host inventory (capacity, residency, used K_n
// edges) and serves the guest lifecycle a real cloud needs.
//
// Every mutation is one value of the typed Op sum — AdmitOp, EvictOp,
// ReplaceOp, DrainOp, UndrainOp, FailOp, EvacuateOp, RepairOp, MigrateOp —
// submitted through the single entry point Apply, which returns a
// structured Outcome (typed result, per-phase barrier timings, affected
// guests, pool deltas), appends it to the operations log (Log), and streams
// progress to Watch subscribers. Stats is a pure fold over the log.
//
// The data plane (cluster, VMMs, gateways) stays mechanism; every policy
// decision — which triangle, which replacement host, when a switchover is
// safe, when a silent machine is declared dead (EnableStallDetector) —
// lives here.
package controlplane

import (
	"errors"
	"fmt"

	"stopwatch/internal/core"
	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
)

// Config tunes the control plane.
type Config struct {
	// Capacity is the per-host replica capacity the pool enforces
	// (placement Theorem 2's c). Required, positive. Keep c <= (n-1)/2 if
	// you want the Theorem-2 guarantees to describe the regime.
	Capacity int
	// DrainWindow is how long the replacement barrier waits after pausing
	// a guest's ingress stream before checking quiescence — it must cover
	// a fabric round trip plus Dom0 processing so in-flight packets and
	// proposals settle. Default 50ms.
	DrainWindow sim.Time
	// MaxDrainAttempts bounds quiescence re-checks (each DrainWindow
	// apart) before a replacement is abandoned. Default 40.
	MaxDrainAttempts int
}

// DefaultConfig returns control-plane defaults for the paper's LAN regime.
func DefaultConfig(capacity int) Config {
	return Config{Capacity: capacity, DrainWindow: 50 * sim.Millisecond, MaxDrainAttempts: 40}
}

// ControlPlane orchestrates guest lifecycle over a running cluster.
type ControlPlane struct {
	c    *core.Cluster
	pool *placement.Pool
	cfg  Config

	// log is the append-only operation record; every Apply opens an entry.
	log opLog
	// watchers are the live Watch subscriptions, in subscription order.
	watchers []*watcher

	// inflight guards per-guest lifecycle exclusivity (a guest being
	// replaced must not concurrently evict).
	inflight map[string]string

	// draining marks machines with an evacuation in progress (drained in
	// the pool, residents not yet all moved).
	draining map[int]bool

	// failures tracks crashed machines (FailOp → RepairOp). Each failure
	// epoch is one *hostFailure; pointer identity doubles as the epoch
	// check, so a reconfiguration closure scheduled in one epoch cannot
	// open a later epoch's evacuation gate.
	failures map[int]*hostFailure

	// suspected marks machines the stall detector has already reported, so
	// one dead machine's many stalled sequences submit one FailOp; cleared
	// by RepairOp so a repaired machine can be re-detected.
	suspected map[int]bool

	// loadAware/loadBudget: telemetry-driven admission (admission.go).
	// Off by default — placement then ignores host telemetry entirely.
	loadAware  bool
	loadBudget sim.Time

	// planned: one-move migration planning for infeasible placements
	// (migrate.go). Off by default — rejections then match the seed exactly.
	planned bool
}

// New builds a control plane over the cluster. The cluster must be in
// StopWatch mode with 3 replicas per guest (replica triangles are what the
// placement theory packs).
func New(c *core.Cluster, cfg Config) (*ControlPlane, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil cluster", ErrControlPlane)
	}
	if c.Ingress() == nil {
		return nil, fmt.Errorf("%w: control plane needs a StopWatch-mode cluster", ErrControlPlane)
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity %d", ErrControlPlane, cfg.Capacity)
	}
	if cfg.DrainWindow <= 0 {
		cfg.DrainWindow = 50 * sim.Millisecond
	}
	if cfg.MaxDrainAttempts <= 0 {
		cfg.MaxDrainAttempts = 40
	}
	pool, err := placement.NewPool(c.Hosts(), cfg.Capacity)
	if err != nil {
		return nil, err
	}
	return &ControlPlane{
		c:         c,
		pool:      pool,
		cfg:       cfg,
		inflight:  make(map[string]string),
		draining:  make(map[int]bool),
		failures:  make(map[int]*hostFailure),
		suspected: make(map[int]bool),
	}, nil
}

// Cluster returns the governed cluster.
func (cp *ControlPlane) Cluster() *core.Cluster { return cp.c }

// Pool returns the live placement pool (read it, don't mutate around the
// control plane).
func (cp *ControlPlane) Pool() *placement.Pool { return cp.pool }

// Utilization returns resident replicas over total capacity, in [0,1].
func (cp *ControlPlane) Utilization() float64 { return cp.pool.Utilization() }

// Residents returns the number of resident guests.
func (cp *ControlPlane) Residents() int { return cp.pool.Guests() }

// InFlight reports whether a lifecycle operation (e.g. a replacement
// barrier) is in progress for the guest, and which. Failure injectors
// should pick a different victim while one is.
func (cp *ControlPlane) InFlight(id string) (string, bool) {
	op, busy := cp.inflight[id]
	return op, busy
}

// Apply submits one operation. The returned Outcome is the op's permanent
// record in the operations log: synchronous ops (admit, evict, undrain,
// repair) complete before Apply returns; asynchronous ops (replace, drain,
// fail, evacuate) complete as the simulation advances — observe completion
// via Outcome.Done, the op's Done callback, or the Watch event stream. A
// validation rejection completes immediately with Outcome.Rejected() true
// and no state changed.
func (cp *ControlPlane) Apply(op Op) *Outcome {
	return cp.apply(op, 0)
}

// apply opens the log entry and dispatches; parent links a child op (an
// evacuation's per-resident move) to the op that submitted it.
func (cp *ControlPlane) apply(op Op, parent uint64) *Outcome {
	oc := cp.log.open(op, parent, cp.c.Loop().Now(), cp.pool.Guests(), cp.pool.Utilization())
	if op == nil {
		cp.finish(oc, fmt.Errorf("%w: nil op", ErrControlPlane))
		return oc
	}
	cp.emit(Event{Kind: OpStarted, Seq: oc.Seq, Parent: oc.Parent, Op: op, At: oc.Submitted})
	switch op := op.(type) {
	case AdmitOp:
		cp.applyAdmit(op, oc)
	case EvictOp:
		cp.applyEvict(op, oc)
	case ReplaceOp:
		cp.applyReplace(op, oc)
	case DrainOp:
		cp.applyDrain(op, oc)
	case UndrainOp:
		cp.applyUndrain(op, oc)
	case FailOp:
		cp.applyFail(op, oc)
	case EvacuateOp:
		cp.applyEvacuate(op, oc)
	case RepairOp:
		cp.applyRepair(op, oc)
	case MigrateOp:
		cp.applyMigrate(op, oc)
	default:
		cp.finish(oc, fmt.Errorf("%w: unknown op %T", ErrControlPlane, op))
	}
	return oc
}

// phase stamps the outcome with a reached phase and streams it.
func (cp *ControlPlane) phase(oc *Outcome, p Phase) {
	at := cp.c.Loop().Now()
	oc.Phases = append(oc.Phases, PhaseTiming{Phase: p, At: at})
	cp.emit(Event{Kind: PhaseReached, Seq: oc.Seq, Parent: oc.Parent, Op: oc.Op, Phase: p, At: at})
}

// finish completes an outcome: final error, completion time, post-op pool
// state, the completion event, and the op's Done callback — in that order,
// so a callback already observes the finished record.
func (cp *ControlPlane) finish(oc *Outcome, err error) {
	oc.Err = err
	oc.done = true
	oc.Completed = cp.c.Loop().Now()
	oc.Pool.GuestsAfter = cp.pool.Guests()
	oc.Pool.UtilAfter = cp.pool.Utilization()
	kind := OpCompleted
	if err != nil {
		kind = OpFailed
	}
	cp.emit(Event{Kind: kind, Seq: oc.Seq, Parent: oc.Parent, Op: oc.Op, At: oc.Completed, Err: err})
	if done := doneFn(oc.Op); done != nil {
		done(oc)
	}
}

// applyAdmit places and deploys a new guest on an edge-disjoint triangle.
// When the pool has no capacity the guest is rejected with ErrRejected;
// any deployment error rolls the placement back.
func (cp *ControlPlane) applyAdmit(op AdmitOp, oc *Outcome) {
	id := op.GuestID
	if op.Factory == nil {
		cp.finish(oc, fmt.Errorf("%w: admit %q needs an app factory", ErrControlPlane, id))
		return
	}
	if verb, busy := cp.inflight[id]; busy {
		cp.finish(oc, fmt.Errorf("%w: guest %q has a %s in flight", ErrControlPlane, id, verb))
		return
	}
	cp.refreshHostTelemetry()
	tri, err := cp.pool.Admit(id)
	if err != nil {
		if errors.Is(err, placement.ErrNoFeasibleHost) {
			// A blocked admission may be one replica move away from feasible:
			// plan that move and run it as a child MigrateOp, then retry.
			if cp.planned {
				if plan, ok := cp.pool.PlanAdmitMigration(id, cp.migrationAvoid); ok {
					oc.setGuest(id)
					cp.phase(oc, PhasePlan)
					cp.admitAfterMigration(op, oc, plan)
					return
				}
			}
			cp.finish(oc, fmt.Errorf("%w: %v", ErrRejected, err))
			return
		}
		cp.finish(oc, err)
		return
	}
	oc.setGuest(id)
	cp.phase(oc, PhasePlace)
	g, err := cp.c.Deploy(id, tri[:], op.Factory)
	if err != nil {
		_, _ = cp.pool.Release(id)
		cp.finish(oc, err)
		return
	}
	oc.Guest, oc.Triangle = g, tri
	cp.phase(oc, PhaseDeploy)
	cp.finish(oc, nil)
}

// applyEvict undeploys a guest and returns its edges and capacity to the
// pool.
func (cp *ControlPlane) applyEvict(op EvictOp, oc *Outcome) {
	id := op.GuestID
	if verb, busy := cp.inflight[id]; busy {
		cp.finish(oc, fmt.Errorf("%w: guest %q has a %s in flight", ErrControlPlane, id, verb))
		return
	}
	if _, ok := cp.pool.Triangle(id); !ok {
		cp.finish(oc, fmt.Errorf("%w: guest %q not resident", ErrControlPlane, id))
		return
	}
	oc.setGuest(id)
	if err := cp.c.Undeploy(id); err != nil {
		cp.finish(oc, err)
		return
	}
	if _, err := cp.pool.Release(id); err != nil {
		cp.finish(oc, err)
		return
	}
	cp.phase(oc, PhaseRelease)
	cp.finish(oc, nil)
}

// applyReplace runs the Sec. VII replacement barrier for guest id's replica
// on op.DeadHost (reported failed by whatever detector submitted the op).
// The protocol, all in simulated time:
//
//  1. pause the guest's ingress stream (client packets buffer at the edge);
//  2. wait DrainWindow for in-flight fabric traffic and delivery proposals
//     to settle, re-checking up to MaxDrainAttempts times;
//  3. re-home the replica through the placement pool (least-loaded fresh
//     host whose edges to both survivors are free);
//  4. reconstruct the replica from the survivors' journal and switch the
//     multicast groups over (core.Cluster.ReplaceReplica);
//  5. resume the ingress stream, flushing the buffered packets.
//
// On failure the ingress is resumed so the surviving replicas keep serving
// degraded.
func (cp *ControlPlane) applyReplace(op ReplaceOp, oc *Outcome) {
	id := op.GuestID
	if verb, busy := cp.inflight[id]; busy {
		cp.finish(oc, fmt.Errorf("%w: guest %q has a %s in flight", ErrControlPlane, id, verb))
		return
	}
	tri, ok := cp.pool.Triangle(id)
	if !ok {
		cp.finish(oc, fmt.Errorf("%w: guest %q not resident", ErrControlPlane, id))
		return
	}
	if !tri.Contains(op.DeadHost) {
		cp.finish(oc, fmt.Errorf("%w: guest %q has no replica on host %d", ErrControlPlane, id, op.DeadHost))
		return
	}
	oc.setGuest(id)
	cp.inflight[id] = "replacement"
	cp.c.Ingress().Pause(id)
	cp.phase(oc, PhasePause)
	done := func(err error) {
		delete(cp.inflight, id)
		if err != nil {
			cp.c.Ingress().Resume(id)
		}
		cp.finish(oc, err)
	}
	attempts := 0
	var barrier func()
	barrier = func() {
		if !cp.c.GuestQuiescent(id) {
			attempts++
			if attempts >= cp.cfg.MaxDrainAttempts {
				done(fmt.Errorf("%w: guest %q never quiesced after %d drain windows", ErrControlPlane, id, attempts))
				return
			}
			oc.QuiesceRetries++
			cp.c.Loop().After(cp.cfg.DrainWindow, "cp:drain", barrier)
			return
		}
		cp.phase(oc, PhaseQuiesce)
		cp.refreshHostTelemetry()
		proceed := func(newTri placement.Triangle, newHost int) {
			cp.phase(oc, PhaseRehome)
			if err := cp.c.ReplaceReplica(id, op.DeadHost, newHost); err != nil {
				// Roll the pool back to the original triangle: the data plane
				// still has the (dead) replica on op.DeadHost. The whole barrier
				// step is one simulated instant, so the freed edges cannot
				// have been claimed in between. A rollback failure leaves pool
				// and cluster divergent — join it into the outcome so it is
				// never swallowed; Verify() flags the divergence it leaves.
				if _, rbErr := cp.pool.Release(id); rbErr != nil {
					err = errors.Join(err, fmt.Errorf("rollback release %q: %w", id, rbErr))
				} else if rbErr := cp.pool.AdmitTriangle(id, tri); rbErr != nil {
					err = errors.Join(err, fmt.Errorf("rollback restore %q on %v: %w", id, tri, rbErr))
				}
				done(err)
				return
			}
			oc.Triangle = newTri
			cp.phase(oc, PhaseReplace)
			cp.c.Ingress().Resume(id)
			cp.phase(oc, PhaseResume)
			done(nil)
		}
		newTri, newHost, err := cp.pool.Rehome(id, op.DeadHost)
		if err == nil {
			proceed(newTri, newHost)
			return
		}
		if !cp.planned || !errors.Is(err, placement.ErrNoFeasibleHost) {
			done(err)
			return
		}
		// No feasible host for the re-home, but perhaps one replica move
		// away from one: plan the move, run it as a child MigrateOp (the
		// guest stays paused and quiescent throughout — its ingress is shut
		// and no new proposals can arrive), then retry the re-home.
		plan, ok := cp.pool.PlanRehomeMigration(id, op.DeadHost, cp.migrationAvoid)
		if !ok {
			done(err)
			return
		}
		cp.phase(oc, PhasePlan)
		mig := MigrateOp{GuestID: plan.GuestID, From: plan.From, To: plan.To}
		mig.Done = func(moc *Outcome) {
			if moc.Err != nil {
				done(errors.Join(err, fmt.Errorf("planned migration: %w", moc.Err)))
				return
			}
			cp.refreshHostTelemetry()
			nt, nh, rerr := cp.pool.Rehome(id, op.DeadHost)
			if rerr != nil {
				done(rerr)
				return
			}
			proceed(nt, nh)
		}
		cp.apply(mig, oc.Seq)
	}
	cp.c.Loop().After(cp.cfg.DrainWindow, "cp:drain", barrier)
}

// Verify checks the control plane's placement invariants (edge-disjoint
// triangles, capacity, bookkeeping) and that the pool agrees with the
// cluster's deployed residency — in both directions, so a half-completed
// rollback (pool lost a guest the cluster still runs) cannot hide.
// Scenario drivers run it once per completed top-level op, keyed off the
// event stream (subscribe Watch, audit on OpCompleted/OpFailed of ops with
// a zero Parent) — one post-outcome audit instead of re-running the
// residency sweep at every step inside an evacuation.
func (cp *ControlPlane) Verify() error {
	if err := cp.pool.Verify(); err != nil {
		return err
	}
	for _, id := range cp.c.GuestIDs() {
		if _, ok := cp.pool.Triangle(id); !ok {
			return fmt.Errorf("%w: cluster deploys %q but the pool does not hold it", ErrControlPlane, id)
		}
	}
	for _, id := range cp.pool.IDs() {
		g, ok := cp.c.Guest(id)
		if !ok {
			return fmt.Errorf("%w: pool holds %q but cluster does not", ErrControlPlane, id)
		}
		tri, _ := cp.pool.Triangle(id)
		want := map[int]bool{tri[0]: true, tri[1]: true, tri[2]: true}
		hosts := g.HostIndexes()
		if len(hosts) != 3 {
			return fmt.Errorf("%w: guest %q has %d replicas", ErrControlPlane, id, len(hosts))
		}
		for _, h := range hosts {
			if !want[h] {
				return fmt.Errorf("%w: guest %q deployed on %v, pool says %v", ErrControlPlane, id, hosts, tri)
			}
		}
	}
	return nil
}
