package controlplane

// Planned migration: moving a live replica between healthy hosts. A
// MigrateOp runs the same freeze + replacement barrier a host drain uses —
// the replica on the source host is frozen while its VMM keeps proposing
// (the paper's footnote-4 regime, so the 3-proposal median never stalls),
// the guest's ingress pauses and quiesces, the pool moves the replica onto
// the pinned destination (RehomeTo), the data plane reconstructs it there
// from the determinism journal, and the ingress resumes.
//
// EnablePlannedMigration additionally turns placement infeasibility into
// plans: an Admit or replacement Rehome the pool cannot satisfy first asks
// the one-move planner (placement.PlanAdmitMigration / PlanRehomeMigration)
// for a single migration that would unblock it, runs that move as a child
// MigrateOp (logged with the blocked op as parent), and retries. Plans never
// nest — a planned migration's own placement is pinned — and the planner
// never moves a guest another lifecycle op holds. Off by default, so
// existing runs place, and log, exactly as before.

import (
	"errors"
	"fmt"

	"stopwatch/internal/placement"
)

// EnablePlannedMigration turns the one-move migration planner on.
func (cp *ControlPlane) EnablePlannedMigration() { cp.planned = true }

// PlannedMigration reports whether the migration planner is on.
func (cp *ControlPlane) PlannedMigration() bool { return cp.planned }

// migrationAvoid excludes guests another lifecycle op holds — the planner
// must not move a guest whose barrier is mid-flight.
func (cp *ControlPlane) migrationAvoid(id string) bool {
	_, busy := cp.inflight[id]
	return busy
}

// applyMigrate moves guest id's replica From → To through the freeze +
// replacement barrier. On a failure after the freeze the replica stays
// frozen and the guest keeps serving degraded on its live pair — the same
// posture as a drain move whose re-home was infeasible.
func (cp *ControlPlane) applyMigrate(op MigrateOp, oc *Outcome) {
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
	if !tri.Contains(op.From) {
		cp.finish(oc, fmt.Errorf("%w: guest %q has no replica on host %d", ErrControlPlane, id, op.From))
		return
	}
	if op.To < 0 || op.To >= cp.c.Hosts() {
		cp.finish(oc, fmt.Errorf("%w: host %d out of range", ErrControlPlane, op.To))
		return
	}
	if cp.Failed(op.From) || cp.c.Host(op.From).Failed() {
		cp.finish(oc, fmt.Errorf("%w: host %d is crashed — replace its replicas, don't migrate them", ErrControlPlane, op.From))
		return
	}
	if cp.Failed(op.To) || cp.c.Host(op.To).Failed() {
		cp.finish(oc, fmt.Errorf("%w: host %d is failed", ErrControlPlane, op.To))
		return
	}
	oc.setGuest(id)
	cp.inflight[id] = "migration"
	// Freeze the moving replica (its VMM keeps proposing): the survivors
	// reach or pass its instruction count, so the replacement journal-replay
	// lands on a consistent cut.
	if g, ok := cp.c.Guest(id); ok {
		if slot, on := g.SlotOnHost(op.From); on {
			g.Replica(slot).Runtime().Stop()
		}
	}
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
			cp.c.Loop().After(cp.cfg.DrainWindow, "cp:migrate-drain", barrier)
			return
		}
		cp.phase(oc, PhaseQuiesce)
		newTri, err := cp.pool.RehomeTo(id, op.From, op.To)
		if err != nil {
			done(err)
			return
		}
		cp.phase(oc, PhaseRehome)
		if err := cp.c.ReplaceReplica(id, op.From, op.To); err != nil {
			// Roll the pool back to the original triangle — same single-
			// instant argument as the replacement barrier's rollback.
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
	cp.c.Loop().After(cp.cfg.DrainWindow, "cp:migrate-drain", barrier)
}

// admitAfterMigration runs a blocked admission's one-move plan as a child
// MigrateOp, then retries the placement. The admission — normally
// synchronous — completes asynchronously on this path; observe it via
// AdmitOp.Done, the outcome, or the event stream.
func (cp *ControlPlane) admitAfterMigration(op AdmitOp, oc *Outcome, plan placement.MigrationPlan) {
	id := op.GuestID
	cp.inflight[id] = "admission"
	mig := MigrateOp{GuestID: plan.GuestID, From: plan.From, To: plan.To}
	mig.Done = func(moc *Outcome) {
		delete(cp.inflight, id)
		if moc.Err != nil {
			cp.finish(oc, fmt.Errorf("%w: admit %q: planned migration failed: %v", ErrRejected, id, moc.Err))
			return
		}
		// The move ran in simulated time; the packing may have shifted under
		// other ops, so the retry re-decides from the live pool.
		cp.refreshHostTelemetry()
		tri, err := cp.pool.Admit(id)
		if err != nil {
			if errors.Is(err, placement.ErrNoFeasibleHost) {
				cp.finish(oc, fmt.Errorf("%w: %v", ErrRejected, err))
				return
			}
			cp.finish(oc, err)
			return
		}
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
	cp.apply(mig, oc.Seq)
}
