package schedule_test

import (
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// FuzzGreedyValidPartition feeds arbitrary request bytes through the greedy
// scheduler and asserts schedule validity and the lower bound.
func FuzzGreedyValidPartition(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5})
	// Route-cache stressors: the same (s, d) pair repeated many times hits
	// the cache on every lookup after the first, and heavy duplication
	// exercises the Dedup edge cases downstream consumers rely on.
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{7, 8, 8, 7, 7, 8, 8, 7, 7, 8, 8, 7})
	f.Add([]byte{0, 15, 15, 0, 0, 15, 3, 12, 12, 3, 3, 12, 0, 15})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 400 {
			raw = raw[:400]
		}
		torus := topology.NewTorus(4, 4)
		var set request.Set
		for i := 0; i+1 < len(raw); i += 2 {
			s := network.NodeID(int(raw[i]) % 16)
			d := network.NodeID(int(raw[i+1]) % 16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		res, err := schedule.Greedy{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(set); err != nil {
			t.Fatal(err)
		}
		if len(set) == 0 {
			return
		}
		lb, err := schedule.LowerBound(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degree() < lb {
			t.Fatalf("degree %d below lower bound %d", res.Degree(), lb)
		}
	})
}

// FuzzColoringValidPartition does the same for the coloring scheduler,
// whose priority machinery has more state to get wrong.
func FuzzColoringValidPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	// Repeated pairs: duplicates are mutually conflicting (shared injection
	// and ejection ports), forcing one configuration per copy while the
	// route cache serves a single shared path for all of them.
	f.Add([]byte{4, 9, 4, 9, 4, 9, 4, 9, 4, 9})
	f.Add([]byte{2, 3, 3, 2, 2, 3, 3, 2, 11, 6, 6, 11, 11, 6})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		torus := topology.NewTorus(4, 4)
		var set request.Set
		for i := 0; i+1 < len(raw); i += 2 {
			s := network.NodeID(int(raw[i]) % 16)
			d := network.NodeID(int(raw[i+1]) % 16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		res, err := schedule.Coloring{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(set); err != nil {
			t.Fatal(err)
		}
	})
}

// bitsetGraphSeeds are request multisets lifted from the integration
// schedules: the table patterns the experiment sweeps compile on a 4x4
// torus, encoded as (src, dst) byte pairs.
func bitsetGraphSeeds() [][]byte {
	var transpose, shift, reverse, gather []byte
	for i := 0; i < 16; i++ {
		if j := (i*7 + 3) % 16; i != j {
			transpose = append(transpose, byte(i), byte(j))
		}
		shift = append(shift, byte(i), byte((i+1)%16))
		if i != 15-i {
			reverse = append(reverse, byte(i), byte(15-i))
		}
		if i != 0 {
			gather = append(gather, byte(i), byte(0))
		}
	}
	return [][]byte{transpose, shift, reverse, gather,
		{4, 9, 4, 9, 4, 9, 4, 9}, // duplicate-heavy
		{0, 15, 15, 0, 0, 15, 3, 12, 12, 3}}
}

// FuzzBitsetGraph differentially fuzzes the conflict-graph build: for an
// arbitrary request multiset, the word-parallel CSR construction (serial
// and sharded, at a worker count drawn from the input) must produce exactly
// the graph the retained pairwise oracle produces — edge for edge, degree
// for degree — and the coloring scheduler on top of it must still emit a
// valid schedule.
func FuzzBitsetGraph(f *testing.F) {
	for _, seed := range bitsetGraphSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		torus := topology.NewTorus(4, 4)
		var set request.Set
		workers := 1
		if len(raw) > 0 {
			workers = 1 + int(raw[0])%4
		}
		for i := 0; i+1 < len(raw); i += 2 {
			s := network.NodeID(int(raw[i]) % 16)
			d := network.NodeID(int(raw[i+1]) % 16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		paths, err := set.Routes(torus)
		if err != nil {
			t.Fatal(err)
		}
		oracle := schedule.OracleConflictGraph(paths)
		check := func(g *schedule.ConflictGraph, how string) {
			t.Helper()
			if g.Len() != oracle.Len() {
				t.Fatalf("%s: %d vertices, oracle has %d", how, g.Len(), oracle.Len())
			}
			for i := 0; i < g.Len(); i++ {
				if g.Degree(i) != oracle.Degree(i) {
					t.Fatalf("%s: vertex %d degree %d, oracle %d", how, i, g.Degree(i), oracle.Degree(i))
				}
				for j := 0; j < g.Len(); j++ {
					if g.Adjacent(i, j) != oracle.Adjacent(i, j) {
						t.Fatalf("%s: edge (%d,%d) = %v, oracle %v", how, i, j,
							g.Adjacent(i, j), oracle.Adjacent(i, j))
					}
				}
			}
		}
		check(schedule.BuildConflictGraph(torus, paths), "serial")
		oldCutoff, oldWorkers := schedule.ConflictGraphParallelCutoff, schedule.ConflictGraphWorkers
		schedule.ConflictGraphParallelCutoff, schedule.ConflictGraphWorkers = 1, workers
		defer func() {
			schedule.ConflictGraphParallelCutoff, schedule.ConflictGraphWorkers = oldCutoff, oldWorkers
		}()
		check(schedule.BuildConflictGraph(torus, paths), "sharded")
		res, err := schedule.Coloring{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(set); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCombinedParallelDeterminism differentially fuzzes the parallel
// scheduling pipeline: for arbitrary request bytes, the goroutine-racing
// Combined must return a schedule byte-identical to the sequential one, and
// both must validate. Seeds skew toward duplicate-heavy sets, where the
// route cache serves one path to both member schedulers at once and
// Dedup-surviving duplicates take distinct slots.
func FuzzCombinedParallelDeterminism(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{5, 10, 5, 10, 5, 10, 5, 10, 5, 10})
	f.Add([]byte{1, 2, 2, 1, 1, 2, 2, 1, 9, 14, 14, 9, 9, 14})
	f.Add([]byte{0, 15, 0, 14, 0, 13, 0, 12, 0, 11, 0, 10})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		torus := topology.NewTorus(4, 4)
		var set request.Set
		for i := 0; i+1 < len(raw); i += 2 {
			s := network.NodeID(int(raw[i]) % 16)
			d := network.NodeID(int(raw[i+1]) % 16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		seq, err := sequential{schedule.Combined{}}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		par, err := schedule.Combined{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Algorithm != par.Algorithm {
			t.Fatalf("algorithm %q sequential vs %q parallel", seq.Algorithm, par.Algorithm)
		}
		if !reflect.DeepEqual(seq.Configs, par.Configs) {
			t.Fatalf("parallel schedule diverged:\nsequential: %v\nparallel:   %v", seq.Configs, par.Configs)
		}
		if !reflect.DeepEqual(seq.Slot, par.Slot) {
			t.Fatal("slot index diverged")
		}
		if err := par.Validate(set); err != nil {
			t.Fatal(err)
		}
	})
}
