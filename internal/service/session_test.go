package service_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ringAllReduceDoc is the canonical keep workload: the first `phases` rounds
// of a 64-rank ring all-reduce, every round the identical circuit set.
func ringAllReduceDoc(t *testing.T, phases int) trace.Document {
	t.Helper()
	coll, err := collective.RingAllReduce(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	prog := coll.Program(1)
	if phases > 0 && phases < len(prog.Phases) {
		prog.Phases = prog.Phases[:phases]
	}
	return trace.FromProgram(prog, 64)
}

// mixedDoc exercises all three decisions: a ring phase, the same ring with
// one circuit swapped (patchable), a disjoint shift (recompile), and the
// ring again (recompile — the shift's circuits share nothing with it).
func mixedDoc(t *testing.T) trace.Document {
	t.Helper()
	ring := func() []sim.Message {
		msgs := make([]sim.Message, 64)
		for i := 0; i < 64; i++ {
			msgs[i] = sim.Message{Src: i, Dst: (i + 1) % 64, Flits: 4}
		}
		return msgs
	}
	patched := ring()
	patched[0].Dst = 2 // 0->1 becomes 0->2
	shift := make([]sim.Message, 64)
	for i := 0; i < 64; i++ {
		shift[i] = sim.Message{Src: i, Dst: (i + 32) % 64, Flits: 4}
	}
	prog := core.Program{Name: "mixed", Phases: []core.Phase{
		{Name: "ring", Messages: ring()},
		{Name: "ring-patched", Messages: patched},
		{Name: "shift", Messages: shift},
		{Name: "ring-again", Messages: ring()},
	}}
	return trace.FromProgram(prog, 64)
}

// moeDriftDoc is a drifting top-2 MoE dispatch on 64 ranks: round 0 is the
// collective.MoEAllToAll dispatch, and each later round moves one selected
// expert of three ranks, the way a learned gate drifts between steps.
func moeDriftDoc(t *testing.T, rounds int) trace.Document {
	t.Helper()
	coll, err := collective.MoEAllToAll(64, 2, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	msgs := coll.Program(4).Phases[0].Messages
	rng := rand.New(rand.NewSource(1))
	prog := core.Program{Name: "moe-drift"}
	for r := 0; r < rounds; r++ {
		if r > 0 {
			msgs = append([]sim.Message(nil), msgs...)
			for moved := 0; moved < 3; moved++ {
				m := &msgs[rng.Intn(len(msgs))]
				m.Dst = newExpert(rng, msgs, m.Src)
			}
		}
		prog.Phases = append(prog.Phases, core.Phase{Name: fmt.Sprintf("moe dispatch %d", r), Messages: msgs})
	}
	return trace.FromProgram(prog, 64)
}

// newExpert draws an expert for rank src that it neither is nor selects.
func newExpert(rng *rand.Rand, msgs []sim.Message, src int) int {
	for {
		e := rng.Intn(64)
		held := e == src
		for _, m := range msgs {
			held = held || (m.Src == src && m.Dst == e)
		}
		if !held {
			return e
		}
	}
}

// TestSessionMoEDriftHidesReconfiguration pins the workload where the
// overlap model strictly wins: when a few circuits drift every round, part
// of each boundary's register load hides under the previous phase, so the
// overlapped plan is shorter than the serialized one.
func TestSessionMoEDriftHidesReconfiguration(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := moeDriftDoc(t, 6)
	res, err := c.Session(context.Background(), doc, client.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hidden := 0
	for _, ph := range res.Phases {
		hidden += ph.Hidden
	}
	tr := res.Trailer
	t.Logf("hidden %d, serialized %d, overlapped %d, decisions %v", hidden, tr.SerializedSlots, tr.TotalSlots, tr.Decisions)
	if hidden == 0 {
		t.Fatal("no phase hid any reconfiguration slots")
	}
	if tr.SerializedSlots <= tr.TotalSlots {
		t.Fatalf("serialized %d slots, overlapped %d: want overlap strictly shorter", tr.SerializedSlots, tr.TotalSlots)
	}
	if err := client.VerifySession(doc, res); err != nil {
		t.Fatalf("session schedules fail validation: %v", err)
	}
}

func TestSessionRingAllReduceKeeps(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := ringAllReduceDoc(t, 8)
	res, err := c.Session(context.Background(), doc, client.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Program != "ring-all-reduce" || res.Header.Phases != 8 || res.Header.Topology != "torus-8x8" {
		t.Fatalf("header = %+v", res.Header)
	}
	if len(res.Phases) != 8 {
		t.Fatalf("got %d phase chunks, want 8", len(res.Phases))
	}
	if res.Phases[0].Decision != string(core.DecisionRecompile) {
		t.Fatalf("cold-start decision = %q, want recompile", res.Phases[0].Decision)
	}
	for _, ph := range res.Phases[1:] {
		if ph.Decision != string(core.DecisionKeep) {
			t.Fatalf("phase %d decision = %q, want keep (identical pattern)", ph.Index, ph.Decision)
		}
		if ph.Stall != 0 || ph.SerializedStall != 0 {
			t.Fatalf("keep phase %d charged stall %d/%d, want 0", ph.Index, ph.Stall, ph.SerializedStall)
		}
	}
	tr := res.Trailer
	if tr.Decisions["keep"] != 7 || tr.Decisions["recompile"] != 1 {
		t.Fatalf("trailer decisions = %v", tr.Decisions)
	}
	if tr.TotalSlots > tr.SerializedSlots {
		t.Fatalf("overlap total %d > serialized %d", tr.TotalSlots, tr.SerializedSlots)
	}
	// Seven kept boundaries skip their register loads entirely, so the plan
	// must beat the paper's per-phase full-reconfiguration baseline.
	if tr.TotalSlots >= tr.BaselineSlots {
		t.Fatalf("session plan %d slots not better than independent-load baseline %d", tr.TotalSlots, tr.BaselineSlots)
	}
	if tr.PipelinedCompiles < 1 {
		t.Fatalf("no compile overlapped serving: pipelined = %d", tr.PipelinedCompiles)
	}
	if err := client.VerifySession(doc, res); err != nil {
		t.Fatalf("session schedules fail validation: %v", err)
	}

	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := snap.Session
	if s.Sessions != 1 || s.PhasesServed != 8 || s.Keep != 7 || s.Recompile != 1 {
		t.Fatalf("session metrics = %+v", s)
	}
	if s.PipelinedCompiles < 1 {
		t.Fatalf("metrics pipelined_compiles = %d, want >= 1", s.PipelinedCompiles)
	}
	if snap.Endpoints["session"].Requests != 1 {
		t.Fatalf("session endpoint metrics = %+v", snap.Endpoints["session"])
	}
}

func TestSessionMixedDecisions(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := mixedDoc(t)
	res, err := c.Session(context.Background(), doc, client.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"recompile", "patch", "recompile", "recompile"}
	for i, ph := range res.Phases {
		if ph.Decision != want[i] {
			t.Fatalf("phase %d (%s) decision = %q, want %q", i, res.Phases[i].Result.Name, ph.Decision, want[i])
		}
	}
	// Every boundary's overlap stall is bounded by its serialized stall, and
	// the hidden slots account for exactly the difference.
	for i, ph := range res.Phases {
		if ph.Stall > ph.SerializedStall {
			t.Fatalf("phase %d overlap stall %d > serialized %d", i, ph.Stall, ph.SerializedStall)
		}
		if ph.Hidden != ph.SerializedStall-ph.Stall {
			t.Fatalf("phase %d hidden %d != serialized %d - stall %d", i, ph.Hidden, ph.SerializedStall, ph.Stall)
		}
	}
	if err := client.VerifySession(doc, res); err != nil {
		t.Fatalf("session schedules fail validation: %v", err)
	}
}

// TestSessionMatchesPlanOverlap is the differential test of the acceptance
// criterion: a storeless daemon's /session stream must make byte-identical
// decisions and serve byte-identical schedules to the in-process
// core.PlanOverlap on the same canonicalized program.
func TestSessionMatchesPlanOverlap(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	for _, doc := range []trace.Document{mixedDoc(t), ringAllReduceDoc(t, 6)} {
		res, err := c.Session(context.Background(), doc, client.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := doc.Program()
		if err != nil {
			t.Fatal(err)
		}
		for i := range prog.Phases {
			msgs := prog.Phases[i].Messages
			sort.Slice(msgs, func(a, b int) bool {
				x, y := msgs[a], msgs[b]
				if x.Src != y.Src {
					return x.Src < y.Src
				}
				if x.Dst != y.Dst {
					return x.Dst < y.Dst
				}
				if x.Start != y.Start {
					return x.Start < y.Start
				}
				return x.Flits < y.Flits
			})
		}
		cp, err := core.Compiler{Topology: topology.NewTorus(8, 8), Scheduler: schedule.Combined{}}.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cp.PlanOverlap(core.DefaultReconfigCost)
		if err != nil {
			t.Fatal(err)
		}
		for i, ph := range res.Phases {
			pp := plan.Phases[i]
			if ph.Decision != string(pp.Decision) {
				t.Fatalf("%s phase %d: session decision %q, plan decision %q", doc.Name, i, ph.Decision, pp.Decision)
			}
			wantConfigs := make([][]service.Pair, len(pp.Schedule.Configs))
			for k, cfg := range pp.Schedule.Configs {
				wantConfigs[k] = make([]service.Pair, len(cfg))
				for j, q := range cfg {
					wantConfigs[k][j] = service.Pair{int(q.Src), int(q.Dst)}
				}
			}
			if !reflect.DeepEqual(ph.Result.Configs, wantConfigs) {
				t.Fatalf("%s phase %d: session schedule differs from PlanOverlap", doc.Name, i)
			}
		}
		if res.Trailer.TotalSlots != plan.Total || res.Trailer.SerializedSlots != plan.Serialized {
			t.Fatalf("%s: trailer (%d, %d) != plan (%d, %d)", doc.Name,
				res.Trailer.TotalSlots, res.Trailer.SerializedSlots, plan.Total, plan.Serialized)
		}
		if res.Trailer.BaselineSlots != plan.Baseline {
			t.Fatalf("%s: trailer baseline %d != plan baseline %d", doc.Name, res.Trailer.BaselineSlots, plan.Baseline)
		}
	}
}

// TestSessionDeterministicAcrossWorkers pins the decision stream against the
// pool size: all of a session's compile work runs sequentially in one
// producer, so worker count must not change a single chunk.
func TestSessionDeterministicAcrossWorkers(t *testing.T) {
	doc := mixedDoc(t)
	var base *client.SessionResult
	for _, workers := range []int{1, 4, 8} {
		_, c := newTestServer(t, service.Config{Workers: workers})
		res, err := c.Session(context.Background(), doc, client.Options{}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// PipelinedCompiles is timing-dependent by design; everything else
		// must be bit-equal.
		res.Trailer.PipelinedCompiles = 0
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Phases, base.Phases) {
			t.Fatalf("workers=%d: phase chunks differ from workers=1", workers)
		}
		if !reflect.DeepEqual(res.Trailer, base.Trailer) {
			t.Fatalf("workers=%d: trailer differs: %+v vs %+v", workers, res.Trailer, base.Trailer)
		}
	}
}

// TestSessionStoreBacked checks the store integration: after a /compile
// warmed the store, a session resolves its recompile candidates as exact
// stored bases ("hit") instead of fresh compiles.
func TestSessionStoreBacked(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, service.Config{StoreDir: dir})
	doc := mixedDoc(t)
	ctx := context.Background()
	if _, _, err := c.Compile(ctx, doc, client.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Session(ctx, doc, client.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[0].Cache != service.CacheHit {
		t.Fatalf("phase 0 cache = %q, want hit from the warmed store", res.Phases[0].Cache)
	}
	// Decisions are unchanged by where the candidates came from.
	if res.Phases[0].Decision != "recompile" || res.Phases[1].Decision != "patch" {
		t.Fatalf("store-backed decisions = %q, %q", res.Phases[0].Decision, res.Phases[1].Decision)
	}
	if err := client.VerifySession(doc, res); err != nil {
		t.Fatal(err)
	}
}

func TestSessionBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	resp, err := http.Get(ts.URL + "/session")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /session -> %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/session", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed /session body -> %d, want 400", resp.StatusCode)
	}
}
