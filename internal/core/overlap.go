package core

import (
	"fmt"

	"repro/internal/delta"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/switchprog"
)

// Decision is the per-phase-boundary reconfiguration choice: keep the
// running circuits, patch them incrementally, or load a freshly compiled
// schedule.
type Decision string

const (
	// DecisionKeep reuses the previous phase's schedule verbatim: its
	// circuits already cover the pattern, so no register is written and no
	// barrier is paid.
	DecisionKeep Decision = "keep"
	// DecisionPatch routes through internal/delta: only registers whose
	// (switch, slot) circuit set changed are rewritten.
	DecisionPatch Decision = "patch"
	// DecisionRecompile loads the phase's scratch-compiled schedule.
	DecisionRecompile Decision = "recompile"
)

// BoundaryEval is the outcome of evaluating one phase boundary: the chosen
// schedule and its predicted accounting under the overlap model.
type BoundaryEval struct {
	Decision Decision
	// Schedule is the chosen schedule for the incoming phase.
	Schedule *schedule.Result
	// Load is the register writes the choice requires.
	Load sim.PhaseLoad
	// Stall is the predicted overlap-aware reconfiguration stall.
	Stall int
	// Hidden is the stall hidden under the previous phase's communication.
	Hidden int
	// SerializedStall is the same load charged with no overlap.
	SerializedStall int
	// Comm is the phase's simulated communication time on Schedule.
	Comm int
	// Baseline is what the paper's model charges the phase when it is
	// compiled and loaded independently: ReconfigCost.Cost of the scratch
	// schedule's degree plus the scratch schedule's communication time. An
	// unchanged phase has the previous phase's scratch schedule, so it
	// repeats the previous Baseline.
	Baseline int
}

// Slots is the predicted cost the decision minimizes: stall plus
// communication.
func (b BoundaryEval) Slots() int { return b.Stall + b.Comm }

// evalCandidate prices one candidate schedule for a boundary.
func evalCandidate(engine *sim.CompiledSim, prev *schedule.Result, prevComm int, cand *schedule.Result, msgs []sim.Message, rc ReconfigCost) (BoundaryEval, error) {
	load, err := sim.RegisterDelta(prev, cand)
	if err != nil {
		return BoundaryEval{}, err
	}
	stall, hidden, err := sim.OverlapStall(prev, prevComm, load, rc.PerSlot, rc.Barrier)
	if err != nil {
		return BoundaryEval{}, err
	}
	var out sim.CompiledResult
	if err := engine.RunInto(cand, msgs, sim.TDM, &out); err != nil {
		return BoundaryEval{}, err
	}
	return BoundaryEval{
		Schedule:        cand,
		Load:            load,
		Stall:           stall,
		Hidden:          hidden,
		SerializedStall: sim.SerializedStall(load, rc.PerSlot, rc.Barrier),
		Comm:            out.Time,
	}, nil
}

// covers reports whether a schedule assigns a slot to every message's
// connection.
func covers(res *schedule.Result, msgs []sim.Message) bool {
	for _, m := range msgs {
		if _, ok := res.Slot[m.Request()]; !ok {
			return false
		}
	}
	return true
}

// patchWorthwhile is the gate in front of the patch candidate: patching is
// only meaningful when the incoming pattern is mostly the running one — the
// same half-size cutoff the store's nearest-base lookup uses. Beyond it the
// "touched registers" advantage is gone by construction and first-fit
// insertion only degrades quality. A zero diff needs no patch (keep covers
// it).
func patchWorthwhile(prev *schedule.Result, target request.Set) bool {
	d := delta.Compute(delta.Requests(prev), target)
	return d.Size() > 0 && d.Size()*2 <= len(target)
}

// ChooseFrom decides keep/patch/recompile for the phase boundary from a
// running schedule prev (whose phase communicated for prevComm slots) into
// the phase carrying msgs. scratch is the phase's scratch-compiled schedule
// (the recompile candidate) and patched the patch candidate, nil to drop
// it. Candidates are priced with the overlap model (register delta,
// idle-slot hiding, barrier) plus the simulated communication time on the
// candidate's schedule, and the cheapest wins; ties break toward keep, then
// patch, so the decision is deterministic. Keep is priced only when prev
// covers every message.
//
// prev == nil (cold start) always recompiles.
func ChooseFrom(prev *schedule.Result, prevComm int, msgs []sim.Message, scratch, patched *schedule.Result, rc ReconfigCost) (BoundaryEval, error) {
	if scratch == nil {
		return BoundaryEval{}, fmt.Errorf("core: ChooseFrom needs a scratch schedule")
	}
	if len(msgs) == 0 {
		return BoundaryEval{}, fmt.Errorf("core: ChooseFrom: phase has no messages")
	}
	engine := sim.NewCompiledSim()
	recomp, err := evalCandidate(engine, prev, prevComm, scratch, msgs, rc)
	if err != nil {
		return BoundaryEval{}, fmt.Errorf("core: pricing recompile: %w", err)
	}
	recomp.Decision = DecisionRecompile
	baseline := rc.Cost(scratch.Degree()) + recomp.Comm
	recomp.Baseline = baseline
	if prev == nil {
		return recomp, nil
	}
	best := recomp
	if patched != nil {
		pe, err := evalCandidate(engine, prev, prevComm, patched, msgs, rc)
		if err != nil {
			return BoundaryEval{}, fmt.Errorf("core: pricing patch: %w", err)
		}
		pe.Decision = DecisionPatch
		if pe.Slots() < best.Slots() || (pe.Slots() == best.Slots() && best.Decision == DecisionRecompile) {
			best = pe
		}
	}
	if covers(prev, msgs) {
		ke, err := evalCandidate(engine, prev, prevComm, prev, msgs, rc)
		if err != nil {
			return BoundaryEval{}, fmt.Errorf("core: pricing keep: %w", err)
		}
		ke.Decision = DecisionKeep
		if ke.Slots() <= best.Slots() {
			best = ke
		}
	}
	best.Baseline = baseline
	return best, nil
}

// SameMessages reports whether two phases carry the identical message
// list — the unchanged-boundary test of Planner.Step.
func SameMessages(a, b []sim.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// patchCandidateBound effectively disables delta's degree-quality gate for
// the patch candidate: the cost model arbitrates quality itself (a bad
// patch loses on simulated communication time).
const patchCandidateBound = 1e9

// Planner is the keep/patch/recompile loop over a phase sequence — the one
// PlanOverlap and the /session serving path both step. It holds the running
// schedule and its communication time, the live delta.Session producing
// patch candidates, and the running totals.
//
// A Planner is not safe for concurrent use.
type Planner struct {
	rc ReconfigCost

	prev                   *schedule.Result
	prevMsgs               []sim.Message
	prevComm, prevBaseline int

	// sess holds the colored schedule the patch candidates come from. It is
	// re-anchored on the running schedule whenever the decision did not
	// serve its output (it then holds a schedule the network never loaded).
	sess      *delta.Session
	sessHolds *schedule.Result

	// Total is the overlap-aware plan time (stall + comm summed),
	// Serialized the same schedules with serialized register loading, and
	// Baseline the paper's model: every phase fully loads its scratch
	// schedule.
	Total, Serialized, Baseline int
}

// NewPlanner starts a plan priced under rc.
func NewPlanner(rc ReconfigCost) *Planner { return &Planner{rc: rc} }

// Step decides the boundary into ph and advances the plan. A static phase
// whose message list equals the previous phase's keeps the running
// schedule outright: zero register writes, the previous communication time
// and the previous Baseline, and scratch is never called — this is where
// an iterative program pays compilation once. Otherwise scratch supplies
// the recompile candidate, the live session a patch candidate for a static
// phase, and ChooseFrom picks. Dynamic phases are never patched: their
// pattern is unknown to the compiler.
func (pl *Planner) Step(ph Phase, scratch func() (*schedule.Result, error)) (BoundaryEval, error) {
	var ev BoundaryEval
	if pl.prev != nil && !ph.Dynamic && SameMessages(ph.Messages, pl.prevMsgs) {
		ev = BoundaryEval{Decision: DecisionKeep, Schedule: pl.prev, Comm: pl.prevComm, Baseline: pl.prevBaseline}
	} else {
		cand, err := scratch()
		if err != nil {
			return BoundaryEval{}, err
		}
		var patched *schedule.Result
		if pl.prev != nil && !ph.Dynamic {
			patched = pl.patch(ph.Requests())
		}
		if ev, err = ChooseFrom(pl.prev, pl.prevComm, ph.Messages, cand, patched, pl.rc); err != nil {
			return BoundaryEval{}, err
		}
	}
	pl.Total += ev.Slots()
	pl.Serialized += ev.SerializedStall + ev.Comm
	pl.Baseline += ev.Baseline
	pl.prev, pl.prevMsgs, pl.prevComm, pl.prevBaseline = ev.Schedule, ph.Messages, ev.Comm, ev.Baseline
	return ev, nil
}

// patch returns the patch candidate for target, or nil when patching is not
// worthwhile or fails (recompile always remains available).
func (pl *Planner) patch(target request.Set) *schedule.Result {
	if !patchWorthwhile(pl.prev, target) {
		return nil
	}
	if pl.sess == nil || pl.sessHolds != pl.prev {
		sess, err := delta.NewSession(pl.prev.Topology, pl.prev, delta.Options{Bound: patchCandidateBound})
		if err != nil {
			pl.sess = nil
			return nil
		}
		pl.sess = sess
	}
	res, st, err := pl.sess.Recompile(target)
	if err != nil {
		pl.sess = nil
		return nil
	}
	pl.sessHolds = res
	if !st.Patched {
		return nil
	}
	return res
}

// PlannedPhase is one phase of an overlap-aware execution plan: the
// boundary decision with its accounting, and the switch program of the
// chosen schedule.
type PlannedPhase struct {
	Name string
	BoundaryEval
	Program *switchprog.Program
}

// OverlapPlan is a compiled program's overlap-aware execution plan: per
// boundary the keep/patch/recompile choice, and the iteration accounting
// under overlapped vs serialized register loading.
type OverlapPlan struct {
	Phases []PlannedPhase
	// Total is the overlap-aware iteration time (stall + comm summed).
	Total int
	// Serialized charges the same chosen schedules with serialized
	// register loading — the schedules and message delivery are identical,
	// only stall accounting differs.
	Serialized int
	// Baseline is the paper's model: every phase loads its scratch
	// schedule fully (ReconfigCost.Cost(degree)), i.e. IterationTime.
	Baseline int
}

// PlanOverlap steps a Planner over every phase of the compiled program,
// each phase's compiled schedule serving as its recompile candidate. The
// first phase always pays its cold-start load serialized.
func (cp *CompiledProgram) PlanOverlap(rc ReconfigCost) (*OverlapPlan, error) {
	if len(cp.Phases) == 0 {
		return nil, fmt.Errorf("core: empty compiled program")
	}
	plan := &OverlapPlan{Phases: make([]PlannedPhase, len(cp.Phases))}
	pl := NewPlanner(rc)
	var prevProg *switchprog.Program
	for i := range cp.Phases {
		ph := &cp.Phases[i]
		ev, err := pl.Step(ph.Phase, func() (*schedule.Result, error) { return ph.Schedule, nil })
		if err != nil {
			return nil, fmt.Errorf("core: phase %q: %w", ph.Phase.Name, err)
		}
		pp := PlannedPhase{Name: ph.Phase.Name, BoundaryEval: ev}
		switch ev.Decision {
		case DecisionKeep:
			pp.Program = prevProg
		case DecisionRecompile:
			pp.Program = ph.Program
		default:
			if pp.Program, err = switchprog.Compile(ev.Schedule); err != nil {
				return nil, fmt.Errorf("core: phase %q: lowering patched schedule: %w", ph.Phase.Name, err)
			}
		}
		plan.Phases[i] = pp
		prevProg = pp.Program
	}
	plan.Total, plan.Serialized, plan.Baseline = pl.Total, pl.Serialized, pl.Baseline
	return plan, nil
}
