package sim

import (
	"testing"

	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// compile schedules reqs on topo with the default combined algorithm.
func compileFor(t *testing.T, topo *topology.Ring, reqs request.Set) *schedule.Result {
	t.Helper()
	res, err := schedule.Combined{}.Schedule(topo, reqs)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return res
}

func ringReqs(n int) request.Set {
	set := make(request.Set, n)
	for i := 0; i < n; i++ {
		set[i] = request.Request{Src: nodeID(i), Dst: nodeID((i + 1) % n)}
	}
	return set
}

func ringMsgs(n, flits int) []Message {
	msgs := make([]Message, n)
	for i := 0; i < n; i++ {
		msgs[i] = Message{Src: i, Dst: (i + 1) % n, Flits: flits}
	}
	return msgs
}

func TestRegisterDeltaIdenticalIsZero(t *testing.T) {
	topo := topology.NewRing(8)
	res := compileFor(t, topo, ringReqs(8))
	load, err := RegisterDelta(res, res)
	if err != nil {
		t.Fatal(err)
	}
	if load.Total != 0 || load.Max != 0 {
		t.Fatalf("identical schedules need %d register writes (max %d), want 0", load.Total, load.Max)
	}
	// An equal but distinct copy must also be a zero delta: the comparison
	// is structural, not pointer identity.
	clone := &schedule.Result{
		Algorithm: res.Algorithm,
		Topology:  res.Topology,
		Configs:   make([]request.Set, len(res.Configs)),
		Slot:      res.Slot,
	}
	for i, cfg := range res.Configs {
		clone.Configs[i] = cfg.Clone()
	}
	load, err = RegisterDelta(res, clone)
	if err != nil {
		t.Fatal(err)
	}
	if load.Total != 0 {
		t.Fatalf("structurally equal schedules need %d register writes, want 0", load.Total)
	}
}

func TestRegisterDeltaDegreeChangeIsFullLoad(t *testing.T) {
	topo := topology.NewRing(8)
	a := compileFor(t, topo, ringReqs(8))
	// Two circuits from the same source force degree >= 2.
	b := compileFor(t, topo, request.Set{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}})
	if a.Degree() == b.Degree() {
		t.Fatalf("test needs differing degrees, both %d", a.Degree())
	}
	load, err := RegisterDelta(a, b)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RegisterLoad(b)
	if err != nil {
		t.Fatal(err)
	}
	if load.Total != full.Total || load.Max != full.Max {
		t.Fatalf("degree change delta = %+v, want full load %+v", load, full)
	}
	if full.Max != b.Degree() {
		t.Fatalf("full load max = %d, want degree %d", full.Max, b.Degree())
	}
}

func TestRegisterDeltaCountsOnlyTouchedSlots(t *testing.T) {
	// Hand-built degree-1 schedules on an 8-ring: the base carries the
	// full ring; the target swaps one circuit (0->1 becomes 0->2, routed
	// through switch 1). Only the switches on the changed routes may
	// charge writes, and at most one slot each.
	topo := topology.NewRing(8)
	base := ringReqs(8)
	baseRes := manualSchedule(topo, base)
	target := append(ringReqs(8)[1:], request.Request{Src: 0, Dst: 2})
	targetRes := manualSchedule(topo, target)
	load, err := RegisterDelta(baseRes, targetRes)
	if err != nil {
		t.Fatal(err)
	}
	if load.Max != 1 {
		t.Fatalf("single-slot change has per-switch max %d, want 1", load.Max)
	}
	// 0->2 traverses switches 0, 1, 2; the circuit set changed at each
	// (0 lost 0->1 gained 0->2; 1 lost nothing but gained the transit; 2
	// gained the ejection). Switch 1's set changed from {0->1, 1->2} to
	// {0->2, 1->2}; switches far from the change are untouched.
	if load.PerSwitch[5] != 0 || load.PerSwitch[6] != 0 {
		t.Fatalf("untouched switches charged writes: %v", load.PerSwitch)
	}
	if load.PerSwitch[1] != 1 {
		t.Fatalf("switch 1 charged %d writes, want 1", load.PerSwitch[1])
	}
}

// manualSchedule builds a degree-1 schedule (all requests in slot 0) —
// valid only when the requests are pairwise conflict-free.
func manualSchedule(topo *topology.Ring, reqs request.Set) *schedule.Result {
	slot := make(map[request.Request]int, len(reqs))
	for _, r := range reqs {
		slot[r] = 0
	}
	return &schedule.Result{
		Algorithm: "manual",
		Topology:  topo,
		Configs:   []request.Set{reqs.Clone()},
		Slot:      slot,
	}
}

func TestOverlapStallColdStartMatchesSerialized(t *testing.T) {
	topo := topology.NewRing(8)
	res := compileFor(t, topo, ringReqs(8))
	load, err := RegisterLoad(res)
	if err != nil {
		t.Fatal(err)
	}
	stall, hidden, err := OverlapStall(nil, 0, load, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := SerializedStall(load, 1, 16)
	if stall != want || hidden != 0 {
		t.Fatalf("cold start stall = %d hidden = %d, want %d and 0", stall, hidden, want)
	}
}

func TestOverlapStallZeroLoadIsFree(t *testing.T) {
	topo := topology.NewRing(8)
	res := compileFor(t, topo, ringReqs(8))
	stall, hidden, err := OverlapStall(res, 100, PhaseLoad{}, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if stall != 0 || hidden != 0 {
		t.Fatalf("zero load stall = %d hidden = %d, want 0, 0 (no barrier without writes)", stall, hidden)
	}
}

func TestOverlapStallHidesBehindIdleSlots(t *testing.T) {
	// Previous phase: a lone long-running circuit 0->1 on an 8-ring,
	// schedule degree 2 (second slot empty via manual construction), so
	// every switch except 0 and 1 is idle in both slots and switches 0, 1
	// idle in one of two. A follow-on load of 2 entries per switch hides
	// fully on idle switches when the previous phase runs long enough.
	topo := topology.NewRing(8)
	prev := &schedule.Result{
		Algorithm: "manual",
		Topology:  topo,
		Configs:   []request.Set{{{Src: 0, Dst: 1}}, {}},
		Slot:      map[request.Request]int{{Src: 0, Dst: 1}: 0},
	}
	next := manual2Slot(topo, request.Set{{Src: 4, Dst: 5}}, request.Set{{Src: 5, Dst: 6}})
	load, err := RegisterDelta(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if load.Max == 0 {
		t.Fatal("expected register writes for disjoint circuits")
	}
	const perSlot, barrier = 1, 16
	// With 100 comm slots, idle switches (4, 5, 6 are untouched by the
	// 0->1 circuit) absorb 100*2/2 = 100 >= their entries; the stall
	// collapses to the bare barrier.
	stall, hidden, err := OverlapStall(prev, 100, load, perSlot, barrier)
	if err != nil {
		t.Fatal(err)
	}
	if stall != barrier {
		t.Fatalf("fully hidden stall = %d, want barrier %d", stall, barrier)
	}
	if want := SerializedStall(load, perSlot, barrier) - barrier; hidden != want {
		t.Fatalf("hidden = %d, want %d", hidden, want)
	}
	// With zero comm slots nothing hides.
	stall, hidden, err = OverlapStall(prev, 0, load, perSlot, barrier)
	if err != nil {
		t.Fatal(err)
	}
	if stall != SerializedStall(load, perSlot, barrier) || hidden != 0 {
		t.Fatalf("no-comm stall = %d hidden = %d, want fully serialized", stall, hidden)
	}
}

func manual2Slot(topo *topology.Ring, a, b request.Set) *schedule.Result {
	slot := make(map[request.Request]int)
	for _, r := range a {
		slot[r] = 0
	}
	for _, r := range b {
		slot[r] = 1
	}
	return &schedule.Result{
		Algorithm: "manual",
		Topology:  topo,
		Configs:   []request.Set{a.Clone(), b.Clone()},
		Slot:      slot,
	}
}
