package core

import (
	"testing"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
)

func ringProgram(n, phases, flits int) Program {
	prog := Program{Name: "ring-loop"}
	for p := 0; p < phases; p++ {
		ph := Phase{Name: "round"}
		for i := 0; i < n; i++ {
			ph.Messages = append(ph.Messages, sim.Message{Src: i, Dst: (i + 1) % n, Flits: flits})
		}
		prog.Phases = append(prog.Phases, ph)
	}
	return prog
}

func ringPhaseMsgs(n, flits int) []sim.Message {
	msgs := make([]sim.Message, n)
	for i := 0; i < n; i++ {
		msgs[i] = sim.Message{Src: i, Dst: (i + 1) % n, Flits: flits}
	}
	return msgs
}

func mustSchedule(t *testing.T, topo network.Topology, reqs request.Set) *schedule.Result {
	t.Helper()
	res, err := schedule.Combined{}.Schedule(topo, reqs)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return res
}

// stepAfter steps a Planner through a first phase prevMsgs served by prev
// (skipped when prev is nil), then into msgs with scratch as the recompile
// candidate, and returns the second boundary's evaluation.
func stepAfter(t *testing.T, prev *schedule.Result, prevMsgs, msgs []sim.Message, scratch *schedule.Result) BoundaryEval {
	t.Helper()
	pl := NewPlanner(DefaultReconfigCost)
	if prev != nil {
		if _, err := pl.Step(Phase{Messages: prevMsgs}, func() (*schedule.Result, error) { return prev, nil }); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := pl.Step(Phase{Messages: msgs}, func() (*schedule.Result, error) { return scratch, nil })
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// Identical circuit set, new volumes: the previous schedule covers the
// pattern with zero register writes, so the priced keep must win.
func TestChooseScheduleIdenticalKeeps(t *testing.T) {
	topo := topology.NewRing(8)
	msgs := ringPhaseMsgs(8, 4)
	prev := mustSchedule(t, topo, Phase{Messages: msgs}.Requests())
	scratch := mustSchedule(t, topo, Phase{Messages: msgs}.Requests())
	ev := stepAfter(t, prev, msgs, ringPhaseMsgs(8, 6), scratch)
	if ev.Decision != DecisionKeep {
		t.Fatalf("identical pattern decided %q, want keep", ev.Decision)
	}
	if ev.Schedule != prev {
		t.Fatal("keep must reuse the previous schedule verbatim")
	}
	if ev.Stall != 0 || ev.Load.Total != 0 {
		t.Fatalf("keep charged stall %d, load %d; want zero", ev.Stall, ev.Load.Total)
	}
}

// One circuit changed: patch pays only the touched registers and must beat
// a full recompile's cold load.
func TestChooseScheduleOneCircuitChangedPatches(t *testing.T) {
	topo := topology.NewRing(16)
	prevMsgs := ringPhaseMsgs(16, 4)
	prev := mustSchedule(t, topo, Phase{Messages: prevMsgs}.Requests())
	// Replace 0->1 with 0->2: one eviction, one insertion.
	msgs := append([]sim.Message(nil), prevMsgs[1:]...)
	msgs = append(msgs, sim.Message{Src: 0, Dst: 2, Flits: 4})
	scratch := mustSchedule(t, topo, Phase{Messages: msgs}.Requests())
	ev := stepAfter(t, prev, prevMsgs, msgs, scratch)
	if ev.Decision != DecisionPatch {
		t.Fatalf("one-circuit change decided %q (stall %d comm %d), want patch", ev.Decision, ev.Stall, ev.Comm)
	}
	if ev.Load.Total == 0 {
		t.Fatal("patch must write the touched registers")
	}
	// The patched schedule serves exactly the new pattern.
	for _, m := range msgs {
		if _, ok := ev.Schedule.Slot[m.Request()]; !ok {
			t.Fatalf("patched schedule misses %v", m.Request())
		}
	}
}

// Disjoint phase pair: nothing to keep, patching would rebuild everything,
// so the decision must be recompile (and use the scratch schedule).
func TestChooseScheduleDisjointRecompiles(t *testing.T) {
	topo := topology.NewRing(16)
	prevMsgs := ringPhaseMsgs(16, 4)
	prev := mustSchedule(t, topo, Phase{Messages: prevMsgs}.Requests())
	msgs := make([]sim.Message, 0, 8)
	for i := 0; i < 16; i += 2 {
		msgs = append(msgs, sim.Message{Src: i, Dst: (i + 3) % 16, Flits: 4})
	}
	scratch := mustSchedule(t, topo, Phase{Messages: msgs}.Requests())
	ev := stepAfter(t, prev, prevMsgs, msgs, scratch)
	if ev.Decision != DecisionRecompile {
		t.Fatalf("disjoint pattern decided %q, want recompile", ev.Decision)
	}
	if ev.Schedule != scratch {
		t.Fatal("recompile must use the scratch schedule")
	}
}

// Cold start always recompiles regardless of pattern.
func TestChooseScheduleColdStartRecompiles(t *testing.T) {
	topo := topology.NewRing(8)
	msgs := ringPhaseMsgs(8, 4)
	scratch := mustSchedule(t, topo, Phase{Messages: msgs}.Requests())
	ev := stepAfter(t, nil, nil, msgs, scratch)
	if ev.Decision != DecisionRecompile {
		t.Fatalf("cold start decided %q, want recompile", ev.Decision)
	}
	if ev.Stall != ev.SerializedStall {
		t.Fatalf("cold start stall %d must equal serialized %d", ev.Stall, ev.SerializedStall)
	}
}

func TestPlanOverlapRingLoopKeepsAndWins(t *testing.T) {
	topo := topology.NewRing(16)
	prog := ringProgram(16, 6, 8)
	cp, err := Compiler{Topology: topo}.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cp.PlanOverlap(DefaultReconfigCost)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Phases[0].Decision != DecisionRecompile {
		t.Fatalf("first phase decided %q, want recompile", plan.Phases[0].Decision)
	}
	for i, ph := range plan.Phases[1:] {
		if ph.Decision != DecisionKeep {
			t.Fatalf("phase %d decided %q, want keep", i+1, ph.Decision)
		}
		if ph.Stall != 0 {
			t.Fatalf("kept phase %d charged stall %d", i+1, ph.Stall)
		}
	}
	if plan.Total >= plan.Baseline {
		t.Fatalf("overlap-aware total %d not below full-reconfig baseline %d", plan.Total, plan.Baseline)
	}
	if plan.Total > plan.Serialized {
		t.Fatalf("overlap-aware total %d above serialized %d", plan.Total, plan.Serialized)
	}
	// Baseline must agree with IterationTime.
	base, _, err := cp.IterationTime(DefaultReconfigCost)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Baseline != base {
		t.Fatalf("plan baseline %d != IterationTime %d", plan.Baseline, base)
	}
}

// An unchanged phase keeps the running schedule without asking for a
// scratch compile, and repeats the previous phase's baseline even when the
// running schedule is a patch.
func TestPlannerUnchangedPhaseRepeatsBaseline(t *testing.T) {
	topo := topology.NewRing(16)
	ring := ringPhaseMsgs(16, 4)
	drift := append([]sim.Message{{Src: 0, Dst: 2, Flits: 4}}, ring[1:]...)
	pl := NewPlanner(DefaultReconfigCost)
	var evs []BoundaryEval
	for _, msgs := range [][]sim.Message{ring, drift} {
		scratch := mustSchedule(t, topo, Phase{Messages: msgs}.Requests())
		ev, err := pl.Step(Phase{Messages: msgs}, func() (*schedule.Result, error) { return scratch, nil })
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if evs[1].Decision != DecisionPatch {
		t.Fatalf("drifted phase decided %q, want patch", evs[1].Decision)
	}
	ev, err := pl.Step(Phase{Messages: drift}, func() (*schedule.Result, error) {
		t.Fatal("unchanged phase asked for a scratch schedule")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Decision != DecisionKeep || ev.Schedule != evs[1].Schedule || ev.Stall != 0 || ev.Comm != evs[1].Comm {
		t.Fatalf("unchanged phase = %+v, want a free keep of the patched schedule", ev)
	}
	if ev.Baseline != evs[1].Baseline {
		t.Fatalf("unchanged phase baseline %d, want the previous phase's %d", ev.Baseline, evs[1].Baseline)
	}
	if want := evs[0].Baseline + 2*evs[1].Baseline; pl.Baseline != want {
		t.Fatalf("planner baseline %d, want %d", pl.Baseline, want)
	}
}
