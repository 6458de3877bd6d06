package request_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/patterns"
	"repro/internal/request"
)

// tablePatterns enumerates the communication patterns of the paper's Tables
// 1–3 (permutations, redistribution-style shifts, and the dense patterns)
// as named request sets on 64 nodes.
func tablePatterns(t *testing.T) map[string]request.Set {
	t.Helper()
	sets := map[string]request.Set{
		"ring":       patterns.Ring(64),
		"linear":     patterns.LinearNeighbors(64),
		"nn2d":       patterns.NearestNeighbor2D(8, 8),
		"nn3d":       patterns.NearestNeighbor3D(4, 4, 4),
		"transpose":  patterns.Transpose(8),
		"all-to-all": patterns.AllToAll(64),
	}
	hyper, err := patterns.Hypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	sets["hypercube"] = hyper
	shuffle, err := patterns.ShuffleExchange(64)
	if err != nil {
		t.Fatal(err)
	}
	sets["shuffle"] = shuffle
	bitrev, err := patterns.BitReversal(64)
	if err != nil {
		t.Fatal(err)
	}
	sets["bitrev"] = bitrev
	random, err := patterns.Random(rand.New(rand.NewSource(1996)), 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	sets["random64"] = random
	return sets
}

func TestPatternKeyOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, set := range tablePatterns(t) {
		triples := set.Triples(4)
		want := request.PatternKey(triples, "torus-8x8", "combined")
		for trial := 0; trial < 8; trial++ {
			shuffled := append([]request.Triple(nil), triples...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			if got := request.PatternKey(shuffled, "torus-8x8", "combined"); got != want {
				t.Fatalf("%s: key depends on order: %s vs %s", name, got, want)
			}
		}
	}
}

func TestPatternKeyCollisionFreedom(t *testing.T) {
	seen := make(map[string]string)
	record := func(label, key string) {
		if prev, dup := seen[key]; dup {
			t.Fatalf("key collision between %s and %s", prev, label)
		}
		seen[key] = label
	}
	for name, set := range tablePatterns(t) {
		// Same pattern under different flit counts, topologies and
		// scheduler params must all produce distinct keys.
		record(name+"/f4/torus/combined", request.PatternKey(set.Triples(4), "torus-8x8", "combined"))
		record(name+"/f8/torus/combined", request.PatternKey(set.Triples(8), "torus-8x8", "combined"))
		record(name+"/f4/mesh/combined", request.PatternKey(set.Triples(4), "mesh-8x8", "combined"))
		record(name+"/f4/torus/greedy", request.PatternKey(set.Triples(4), "torus-8x8", "greedy"))
	}
	if len(seen) != 4*len(tablePatterns(t)) {
		t.Fatalf("expected %d distinct keys, got %d", 4*len(tablePatterns(t)), len(seen))
	}
}

func TestPatternKeyEncodingInjective(t *testing.T) {
	// The length-prefixed encoding must not let adjacent strings bleed into
	// each other: ("ab","c") vs ("a","bc") and param/topology swaps differ.
	a := request.PatternKey(nil, "ab", "c")
	b := request.PatternKey(nil, "a", "bc")
	c := request.PatternKey(nil, "c", "ab")
	if a == b || a == c || b == c {
		t.Fatalf("string encoding is not injective: %s %s %s", a, b, c)
	}
	// Start offsets distinguish otherwise-identical traffic.
	t0 := []request.Triple{{Src: 0, Dst: 1, Flits: 2}}
	t1 := []request.Triple{{Src: 0, Dst: 1, Flits: 2, Start: 5}}
	if request.PatternKey(t0, "torus-8x8") == request.PatternKey(t1, "torus-8x8") {
		t.Fatal("start offset ignored by key")
	}
	// Duplicate requests are part of the identity (multiset, not set).
	if request.PatternKey(append(t0, t0...), "torus-8x8") == request.PatternKey(t0, "torus-8x8") {
		t.Fatal("duplicate triple ignored by key")
	}
}

func TestPatternKeyShape(t *testing.T) {
	key := request.PatternKey(nil, "torus-8x8")
	if len(key) != 64 || strings.ToLower(key) != key {
		t.Fatalf("key %q is not lowercase hex sha256", key)
	}
}

func TestCanonicalTriplesDoesNotMutate(t *testing.T) {
	in := []request.Triple{{Src: 3, Dst: 1, Flits: 1}, {Src: 0, Dst: 2, Flits: 1}}
	orig := append([]request.Triple(nil), in...)
	out := request.CanonicalTriples(in)
	if in[0] != orig[0] || in[1] != orig[1] {
		t.Fatal("CanonicalTriples mutated its input")
	}
	if out[0].Src != 0 || out[1].Src != 3 {
		t.Fatalf("not sorted: %v", out)
	}
}

// TestPatternKeyGolden pins PatternKey's encoding: keys are persisted store
// keys, so the bytes hashed may never change. The triples are out of
// order, repeat, and use a negative and a wide value; the hash must equal
// the one the incremental PatternHash gives the canonical order.
func TestPatternKeyGolden(t *testing.T) {
	ts := []request.Triple{{9, 1, 3, 7}, {9, 1, 3, 2}, {0, 63, 1, 0}, {9, 1, 2, 2}, {0, 63, 1, 0}, {-1, 5, 1 << 40, 0}}
	const want = "959a4aeeeca3a3afaab788b00b04381a794e0e7fde59d07d10a872e1db584be6"
	if got := request.PatternKey(ts, "torus-8x8", "alg=combined", "kind=delta-base"); got != want {
		t.Fatalf("PatternKey = %s, want %s", got, want)
	}
	var ph request.PatternHash
	for i := 0; i < 2; i++ { // the second round reuses the hasher
		ph.Start("torus-8x8", len(ts), "alg=combined", "kind=delta-base")
		for _, tr := range request.CanonicalTriples(ts) {
			ph.Add(tr)
		}
		if got := ph.Sum(); got != want {
			t.Fatalf("round %d: PatternHash = %s, want %s", i, got, want)
		}
	}
	if got := request.PatternKey(nil, ""); got != "79fed9c1f0dc1e62dd818cfafccc0deea34ddf468dc87642e86f4581f710e02c" {
		t.Fatalf("empty PatternKey = %s", got)
	}
}
