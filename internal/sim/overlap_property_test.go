package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
)

// planProgram compiles one phase per request set (message i of phase p
// carrying flits(p, i) flits) and plans it with core.PlanOverlap.
func planProgram(t *testing.T, topo network.Topology, sets []request.Set, flits func(p, i int) int) (core.Program, *core.OverlapPlan) {
	t.Helper()
	prog := core.Program{Name: topo.Name()}
	for p, set := range sets {
		msgs := make([]sim.Message, len(set))
		for i, r := range set {
			msgs[i] = sim.Message{Src: int(r.Src), Dst: int(r.Dst), Flits: flits(p, i)}
		}
		prog.Phases = append(prog.Phases, core.Phase{Name: fmt.Sprintf("phase %d", p), Messages: msgs})
	}
	cp, err := core.Compiler{Topology: topo, Scheduler: schedule.Combined{}}.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cp.PlanOverlap(core.DefaultReconfigCost)
	if err != nil {
		t.Fatal(err)
	}
	return prog, plan
}

// TestOverlapSerializedEquivalenceAcrossFamilies is the property the whole
// overlap model rests on: overlapped register loading changes WHEN a phase
// may start, never WHAT the network delivers. For multi-phase programs over
// three topology families — mixing repeated, drifted, and random patterns
// so boundaries of every kind occur — every planned phase communicates
// exactly as the compiled simulator delivers it on the chosen schedule, and
// only the stall accounting differs between overlapped and serialized
// loading, and only downward.
func TestOverlapSerializedEquivalenceAcrossFamilies(t *testing.T) {
	families := []struct {
		name string
		topo network.Topology
	}{
		{"ring-16", topology.NewRing(16)},
		{"torus-8x8", topology.NewTorus(8, 8)},
		{"hypercube-32", topology.NewHypercube(5)},
	}
	rc := core.DefaultReconfigCost
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			n := f.topo.NumNodes()
			rng := rand.New(rand.NewSource(int64(7 * n)))
			ring := patterns.Ring(n)
			drift := ring.Clone()
			drift[0].Dst = network.NodeID(2) // one circuit replaced
			randA, err := patterns.Random(rng, n, n)
			if err != nil {
				t.Fatal(err)
			}
			// Phase sequence with keep-shaped (repeat), patch-shaped
			// (drift), and recompile-shaped (random) boundaries.
			sets := []request.Set{ring, ring, drift, randA, randA, ring}
			prog, plan := planProgram(t, f.topo, sets, func(p, i int) int { return 1 + (p+i)%5 })
			total, serialized, fullLoads := 0, 0, 0
			for i, pp := range plan.Phases {
				out, err := sim.RunCompiled(pp.Schedule, prog.Phases[i].Messages)
				if err != nil {
					t.Fatal(err)
				}
				if pp.Comm != out.Time {
					t.Fatalf("phase %d: planned comm %d, delivered in %d", i, pp.Comm, out.Time)
				}
				if pp.Hidden < 0 || pp.Hidden != pp.SerializedStall-pp.Stall {
					t.Fatalf("phase %d: hidden %d, serialized stall %d, stall %d", i, pp.Hidden, pp.SerializedStall, pp.Stall)
				}
				total += pp.Stall + pp.Comm
				serialized += pp.SerializedStall + pp.Comm
				fullLoads += rc.Cost(pp.Schedule.Degree()) + pp.Comm
			}
			if total != plan.Total || serialized != plan.Serialized {
				t.Fatalf("plan totals (%d, %d), phases sum to (%d, %d)", plan.Total, plan.Serialized, total, serialized)
			}
			if plan.Total > plan.Serialized {
				t.Fatalf("overlap total %d exceeds serialized %d", plan.Total, plan.Serialized)
			}
			// A register delta never costs more than a full load of the
			// same schedule.
			if plan.Serialized > fullLoads {
				t.Fatalf("serialized %d exceeds full register loads %d", plan.Serialized, fullLoads)
			}
		})
	}
}

// TestPlanOverlapDeterministic: compiling and planning is a pure function —
// two runs over the same program are identical in every field.
func TestPlanOverlapDeterministic(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	rng := rand.New(rand.NewSource(99))
	var sets []request.Set
	for i := 0; i < 4; i++ {
		set, err := patterns.Random(rng, 16, 20)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	two := func(p, i int) int { return 2 }
	_, a := planProgram(t, topo, sets, two)
	_, b := planProgram(t, topo, sets, two)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PlanOverlap is not deterministic")
	}
}
