package delta_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/topology"
)

func mustSchedule(t *testing.T, sch schedule.Scheduler, topo network.Topology, set request.Set) *schedule.Result {
	t.Helper()
	res, err := sch.Schedule(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestComputeDiff(t *testing.T) {
	r := func(s, d int) request.Request {
		return request.Request{Src: network.NodeID(s), Dst: network.NodeID(d)}
	}
	cases := []struct {
		name         string
		base, target request.Set
		added, rmvd  int
	}{
		{"identical", request.Set{r(0, 1), r(1, 2)}, request.Set{r(1, 2), r(0, 1)}, 0, 0},
		{"pure add", request.Set{r(0, 1)}, request.Set{r(0, 1), r(2, 3)}, 1, 0},
		{"pure remove", request.Set{r(0, 1), r(2, 3)}, request.Set{r(2, 3)}, 0, 1},
		{"swap", request.Set{r(0, 1), r(2, 3)}, request.Set{r(0, 1), r(4, 5)}, 1, 1},
		{"duplicate counts", request.Set{r(0, 1), r(0, 1), r(0, 1)}, request.Set{r(0, 1)}, 0, 2},
		{"duplicate grows", request.Set{r(0, 1)}, request.Set{r(0, 1), r(0, 1)}, 1, 0},
		{"disjoint", request.Set{r(0, 1)}, request.Set{r(2, 3)}, 1, 1},
		{"empty base", nil, request.Set{r(0, 1)}, 1, 0},
		{"empty target", request.Set{r(0, 1)}, nil, 0, 1},
	}
	for _, tc := range cases {
		d := delta.Compute(tc.base, tc.target)
		if len(d.Added) != tc.added || len(d.Removed) != tc.rmvd {
			t.Errorf("%s: diff = +%d/-%d, want +%d/-%d", tc.name, len(d.Added), len(d.Removed), tc.added, tc.rmvd)
		}
		if d.Size() != tc.added+tc.rmvd {
			t.Errorf("%s: Size() = %d", tc.name, d.Size())
		}
	}
}

func TestPatchDriftedPattern(t *testing.T) {
	// Drift a hypercube pattern by a handful of requests; the patch must
	// serve exactly the target and stay near the from-scratch degree.
	torus := topology.NewTorus(8, 8)
	base, err := patterns.Hypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	baseRes := mustSchedule(t, schedule.Combined{}, torus, base)

	target := base.Clone()[:len(base)-5]
	target = append(target, request.Set{{Src: 0, Dst: 63}, {Src: 17, Dst: 42}, {Src: 5, Dst: 58}}...)

	res, evicted, err := delta.Patch(baseRes, torus, target)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 0 {
		t.Errorf("evicted %d survivors on an unchanged topology", evicted)
	}
	if err := res.Validate(target); err != nil {
		t.Fatalf("patched schedule invalid: %v", err)
	}
	if res.Algorithm != baseRes.Algorithm+"+delta" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	scratch := mustSchedule(t, schedule.Combined{}, torus, target)
	if float64(res.Degree()) > delta.DefaultBound*float64(scratch.Degree()) {
		t.Errorf("patched degree %d too far above from-scratch %d", res.Degree(), scratch.Degree())
	}
	// The base is untouched.
	if err := baseRes.Validate(base); err != nil {
		t.Fatalf("Patch corrupted the base: %v", err)
	}
}

func TestPatchOntoFaultMaskedTopology(t *testing.T) {
	// Rebase a healthy schedule onto a masked view: circuits whose routes
	// die are detoured, everything still validates, and the patched
	// schedule carries real traffic through the compiled simulator.
	torus := topology.NewTorus(8, 8)
	set, err := patterns.Hypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	healthy := mustSchedule(t, schedule.Combined{}, torus, set)

	faults := fault.SetOf(fault.RandomLinkPlan(torus, 1996, 3, 0))
	masked := fault.NewMasked(torus, faults)
	defer network.InvalidateRoutes(masked)

	res, _, err := delta.Patch(healthy, masked, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(set); err != nil {
		t.Fatalf("rebased schedule invalid on the masked view: %v", err)
	}
	// Validation of the patched schedule end to end: the compiled
	// simulator must deliver every message over it.
	msgs := make([]sim.Message, len(set))
	for i, q := range set {
		msgs[i] = sim.Message{Src: int(q.Src), Dst: int(q.Dst), Flits: 3}
	}
	out, err := sim.RunCompiled(res, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Time < 1 || len(out.Finish) != len(msgs) {
		t.Fatalf("degenerate compiled run: time %d, %d finish times", out.Time, len(out.Finish))
	}
	for i, fin := range out.Finish {
		if fin < 1 {
			t.Fatalf("message %d never delivered on the patched schedule", i)
		}
	}
}

func TestRecompilePatchesWithinBound(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	base, err := patterns.Hypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	baseRes := mustSchedule(t, schedule.Combined{}, torus, base)
	target := append(base.Clone()[:len(base)-4], request.Request{Src: 9, Dst: 33})

	res, st, err := delta.Recompile(torus, baseRes, target, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Patched {
		t.Fatalf("expected patch acceptance, fell back: %s", st.Fallback)
	}
	if st.Added != 1 || st.Removed != 4 || st.BaseDegree != baseRes.Degree() {
		t.Errorf("stats = %+v", st)
	}
	if st.Degree != res.Degree() || st.Estimate < 1 {
		t.Errorf("stats degree/estimate = %+v", st)
	}
	if err := res.Validate(target); err != nil {
		t.Fatal(err)
	}
}

func TestRecompileFallsBackOnBound(t *testing.T) {
	// A bound below 1.0 is unsatisfiable (degree >= lower bound always),
	// so Recompile must reject every patch and run the full compile.
	torus := topology.NewTorus(8, 8)
	base := patterns.Ring(64)
	baseRes := mustSchedule(t, schedule.Combined{}, torus, base)
	target := append(base.Clone(), request.Request{Src: 0, Dst: 32})

	res, st, err := delta.Recompile(torus, baseRes, target, delta.Options{Bound: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Patched {
		t.Fatal("unsatisfiable bound accepted a patch")
	}
	if st.Fallback == "" {
		t.Fatal("fallback reason missing")
	}
	if err := res.Validate(target); err != nil {
		t.Fatal(err)
	}
	// The fallback is exactly what the scheduler produces from scratch.
	scratch := mustSchedule(t, schedule.Combined{}, torus, target)
	if !bytes.Equal(store.EncodeResult(res), store.EncodeResult(scratch)) {
		t.Fatal("fallback result differs from a from-scratch compile")
	}
}

func TestRecompileNoBase(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	target := patterns.Ring(64)
	res, st, err := delta.Recompile(torus, nil, target, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Patched || st.Fallback != "no base schedule" {
		t.Fatalf("stats = %+v", st)
	}
	if err := res.Validate(target); err != nil {
		t.Fatal(err)
	}
}

func TestRecompileDisconnectedTarget(t *testing.T) {
	// Failing every link of node 0 disconnects requests touching it; delta
	// must surface the scheduler's canonical error, not invent one.
	torus := topology.NewTorus(4, 4)
	set := patterns.Ring(16)
	healthy := mustSchedule(t, schedule.Combined{}, torus, set)
	faults := fault.NewSet()
	faults.FailNode(0)
	masked := fault.NewMasked(torus, faults)
	defer network.InvalidateRoutes(masked)
	_, st, err := delta.Recompile(masked, healthy, set, delta.Options{})
	if err == nil {
		t.Fatal("disconnected target recompiled successfully")
	}
	if st.Patched {
		t.Fatal("stats claim a patch despite the error")
	}
}

// TestPatchDeterminism is the delta layer's half of the PR's determinism
// guarantee: the same base and target produce byte-identical encodings on
// every run, whatever scheduler rides along in Options (the patch path
// never consults it), and a store round-trip of the patched schedule is a
// fixed point.
func TestPatchDeterminism(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rng := rand.New(rand.NewSource(1996))
	full, err := patterns.Random(rng, 64, 400)
	if err != nil {
		t.Fatal(err)
	}
	base, extraPool := full[:300], full[300:]
	baseRes := mustSchedule(t, schedule.Combined{}, torus, base)
	target := append(base.Clone()[:280], extraPool...)

	var first []byte
	for i, v := range []struct {
		opt        delta.Options
		sequential bool // Combined's GOMAXPROCS=1 path
	}{
		{delta.Options{}, false},
		{delta.Options{Scheduler: schedule.Combined{}}, true},
		{delta.Options{Scheduler: schedule.Greedy{}}, false},
	} {
		procs := runtime.GOMAXPROCS(0)
		if v.sequential {
			runtime.GOMAXPROCS(1)
		}
		res, st, err := delta.Recompile(torus, baseRes, target, v.opt)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Patched {
			t.Fatalf("variant %d fell back (%s); determinism check needs the patch path", i, st.Fallback)
		}
		enc := store.EncodeResult(res)
		if first == nil {
			first = enc
		} else if !bytes.Equal(first, enc) {
			t.Fatalf("variant %d produced a different patched schedule", i)
		}
		// Store round-trip fixed point.
		dec, err := store.DecodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dec.Result(torus)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(store.EncodeResult(back), enc) {
			t.Fatal("store round-trip is not a fixed point for a patched schedule")
		}
	}
}

func TestRequestsFlatten(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	set := patterns.Ring(16)
	res := mustSchedule(t, schedule.Greedy{}, torus, set)
	flat := delta.Requests(res)
	if d := delta.Compute(flat, set); d.Size() != 0 {
		t.Fatalf("Requests() multiset drifted from the scheduled set: %+v", d)
	}
}
