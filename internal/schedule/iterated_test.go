package schedule_test

import (
	"math/rand"
	"testing"

	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

func TestIteratedGreedyNeverWorseThanCombined(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		set, err := patterns.Random(rng, 64, 300+trial*400)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := schedule.Combined{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		it, err := schedule.IteratedGreedy{Restarts: 16}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Validate(set); err != nil {
			t.Fatal(err)
		}
		if it.Degree() > comb.Degree() {
			t.Errorf("trial %d: iterated %d worse than combined %d", trial, it.Degree(), comb.Degree())
		}
	}
}

func TestIteratedGreedyFindsFig3Optimum(t *testing.T) {
	lin := topology.NewLinear(5)
	reqs := request.Set{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 3, Dst: 4}, {Src: 2, Dst: 4}}
	res, err := schedule.IteratedGreedy{Restarts: 64}.Schedule(lin, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degree() != 2 {
		t.Errorf("degree = %d, want the optimal 2", res.Degree())
	}
}

func TestIteratedGreedyDeterministic(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rng := rand.New(rand.NewSource(5))
	set, err := patterns.Random(rng, 64, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := schedule.IteratedGreedy{Restarts: 8, Seed: 3}.Schedule(torus, set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule.IteratedGreedy{Restarts: 8, Seed: 3}.Schedule(torus, set)
	if err != nil {
		t.Fatal(err)
	}
	if a.Degree() != b.Degree() {
		t.Error("same seed produced different degrees")
	}
}
