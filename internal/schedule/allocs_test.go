package schedule_test

import (
	"runtime"
	"testing"

	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// Allocation pins for the arena core. The bitset scheduler's contract is
// that a warm CompileState compiles with zero heap allocations and a warm
// Incremental patches with zero heap allocations; these tests hold that
// line so a stray append or escaping closure shows up as a test failure,
// not as a latency regression in the service.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 for the measured runs, so
// Combined{} takes its sequential path (the goroutine race is inherently
// allocating and is bypassed on single-CPU runs by design).

func compileSteadyAllocs(t *testing.T, s schedule.Scheduler, reqs request.Set) float64 {
	t.Helper()
	topo, err := topology.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	st := schedule.NewCompileState()
	for i := 0; i < 3; i++ { // grow the arena and warm the route cache
		if _, err := st.Compile(s, topo, reqs); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := st.Compile(s, topo, reqs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScheduleSteadyStateAllocs pins CompileState.Compile at zero
// allocations once warm, for every paper scheduler.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := splitmix64(42)
	reqs := randomPattern(&rng, 64, 128)
	cases := []struct {
		name       string
		s          schedule.Scheduler
		sequential bool // warm up on the GOMAXPROCS=1 path as well
	}{
		{"greedy", schedule.Greedy{}, false},
		{"coloring", schedule.Coloring{}, false},
		{"aapc", schedule.OrderedAAPC{}, false},
		{"combined-seq", schedule.Combined{}, true},
		{"combined", schedule.Combined{}, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.sequential {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			if n := compileSteadyAllocs(t, c.s, reqs); n != 0 {
				t.Fatalf("steady-state Compile allocates %.1f per run, want 0", n)
			}
		})
	}
}

// TestIncrementalSteadyStateAllocs pins the live-schedule patch loop —
// Update to a drifted target plus Result — at zero allocations once warm.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo, err := topology.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	nn := topo.NumNodes()
	rng := splitmix64(7)
	a := randomPattern(&rng, nn, 128)
	b := append(a[:96:96].Clone(), randomPattern(&rng, nn, 32)...) // 3/4 overlap
	base, err := schedule.Coloring{}.Schedule(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := schedule.NewIncremental(base)
	if err != nil {
		t.Fatal(err)
	}
	targets := [2]request.Set{b, a}
	step := func(i int) {
		if _, _, err := inc.Update(targets[i%2]); err != nil {
			t.Fatal(err)
		}
		if got := inc.Result("coloring+delta"); got.Degree() == 0 {
			t.Fatal("patched schedule is empty")
		}
	}
	for i := 0; i < 6; i++ { // settle the slot-lane and scratch capacities
		step(i)
	}
	i := 0
	n := testing.AllocsPerRun(20, func() {
		step(i)
		i++
	})
	if n != 0 {
		t.Fatalf("steady-state Update+Result allocates %.1f per run, want 0", n)
	}
}

// TestLowerBoundSteadyStateAllocs pins the pooled LowerBound entry point.
func TestLowerBoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo, err := topology.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	rng := splitmix64(11)
	reqs := randomPattern(&rng, topo.NumNodes(), 128)
	if _, err := schedule.LowerBound(topo, reqs); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := schedule.LowerBound(topo, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state LowerBound allocates %.1f per run, want 0", n)
	}
}
