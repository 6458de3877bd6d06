package service

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/patterns"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Program keys are persisted store keys and cluster ring positions: a
// change to how a request is decoded, canonicalized or hashed must leave
// every one of them byte-identical. These values were computed by the
// original (decode, copy, sort.Slice, PatternKey) implementation.
var goldenKeys = map[string]string{
	"p3m64":     "43dea7eb6eb845fc61dbc125a1c472285bbd77de6b05e08ca8cd8069f1a82b94",
	"ring64":    "142dfa95ecad1c0e9b856f0ef6072a78d7d4ac1a6f3b907bd55a8c7c53514670",
	"moe64":     "517fbbb0cbf0680fb2a29573234c095438f2d4222729dc68f478416d43de970c",
	"table1":    "2215a1e46b4d686f41ca7234e32ac1b8683b6de184d46ff12d3958e01a93aeee",
	"timed":     "39cca245ab3acc0153c1861bb243870fd6cf6c792dc5063586c5b2926b65df4d",
	"recompile": "aeff630e5091f849579a46daf868eca08033b39c1e2d74f3822074f5a47166f6",
}

func readP3M64(t testing.TB) []byte {
	t.Helper()
	body, err := os.ReadFile("../../examples/traces/p3m64.json")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// table1Doc is one Table 1 random pattern: 1000 distinct connections on
// 64 PEs, in the order the generator produced them.
func table1Doc() trace.Document {
	set, err := patterns.Random(rand.New(rand.NewSource(1)), 64, 1000)
	if err != nil {
		panic(err)
	}
	ph := core.Phase{Name: "random-1000"}
	for _, r := range set {
		ph.Messages = append(ph.Messages, sim.Message{Src: int(r.Src), Dst: int(r.Dst), Flits: 1})
	}
	return trace.FromProgram(core.Program{Name: "table1", Phases: []core.Phase{ph}}, 64)
}

// timedDoc carries start times, duplicate messages and a dynamic phase, the
// fields the simpler documents leave at their zero values.
func timedDoc() trace.Document {
	return trace.Document{Name: "timed", PEs: 64, Phases: []trace.Phase{
		{Name: "a", Messages: []trace.Message{
			{Src: 9, Dst: 1, Flits: 3, Start: 7}, {Src: 9, Dst: 1, Flits: 3, Start: 2},
			{Src: 0, Dst: 63, Flits: 1}, {Src: 9, Dst: 1, Flits: 2, Start: 2}, {Src: 0, Dst: 63, Flits: 1},
		}},
		{Name: "b", Dynamic: true, Messages: []trace.Message{{Src: 5, Dst: 4, Flits: 8}, {Src: 4, Dst: 5, Flits: 8}}},
	}}
}

func TestProgramKeysGolden(t *testing.T) {
	p3m, err := trace.Read(bytes.NewReader(readP3M64(t)))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := collective.RingAllReduce(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	moe, err := collective.MoEAllToAll(64, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]trace.Document{
		"p3m64":  p3m,
		"ring64": trace.FromProgram(ring.Program(1), 64),
		"moe64":  trace.FromProgram(moe.Program(1), 64),
		"table1": table1Doc(),
		"timed":  timedDoc(),
	}
	torus := topology.NewTorus(8, 8).Name()
	for name, doc := range docs {
		key, err := KeyForDocument(doc, torus, "combined")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key != goldenKeys[name] {
			t.Errorf("%s: key %s, want %s", name, key, goldenKeys[name])
		}
	}

	s := newWhiteboxServer(t, Config{Topology: topology.NewTorus(8, 8)})
	resp := decodeResponse(t, postTrace(s, "/recompile?links=42,3", readP3M64(t)))
	if resp.Key != goldenKeys["recompile"] {
		t.Errorf("recompile: key %s, want %s", resp.Key, goldenKeys["recompile"])
	}
}
