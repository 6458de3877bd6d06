package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func ns(d int) time.Duration { return time.Duration(d) }

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Name: "child", Start: ns(10), End: ns(40)},
		{ID: 3, Parent: 2, Name: "grandchild", Start: ns(20), End: ns(30)},
		{ID: 4, Parent: 1, Name: "child", Start: ns(60), End: ns(70)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 60, 2: 20, 3: 10, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if got := sum["child"]; got.calls != 2 || got.busy != 30 {
		t.Errorf("child summary: %d calls, busy %v; want 2 calls, busy 30ns", got.calls, got.busy)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two concurrent children overlap each other, a third runs past the
	// parent's end: only the union inside the parent counts, [10,70] and
	// [90,100].
	spans := []span{
		{ID: 1, Name: "handler", Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Start: ns(10), End: ns(50)},
		{ID: 3, Parent: 1, Start: ns(30), End: ns(70)},
		{ID: 4, Parent: 1, Start: ns(90), End: ns(120)},
		{ID: 5, Parent: 1, Start: ns(40), End: ns(45)}, // inside 2 and 3
	}
	if got := selfTimes(spans)[1]; got != 30 {
		t.Fatalf("self time %v, want 30ns", got)
	}
	// A child entirely outside its parent covers nothing.
	spans = []span{{ID: 1, Start: ns(0), End: ns(10)}, {ID: 2, Parent: 1, Start: ns(20), End: ns(30)}}
	if got := selfTimes(spans)[1]; got != 10 {
		t.Fatalf("self time %v, want 10ns", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		enough bool
	}{
		{1000, 0.99, 990, true}, // ten samples, 991..1000, lie beyond
		{999, 0.99, 990, false}, // rank 990 leaves nine beyond
		{1500, 0.99, 1485, true},
		{100, 0.5, 50, true},
		{100, 0.95, 95, false},
		{200, 0.95, 190, true},
	} {
		got, enough := percentile(samples(tc.n), tc.p)
		if got != tc.want || enough != tc.enough {
			t.Errorf("n=%d p=%v: got %v (enough %v), want %v (enough %v)", tc.n, tc.p, got, enough, tc.want, tc.enough)
		}
	}
	if _, enough := percentile(nil, 0.5); enough {
		t.Error("empty sample reported enough")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// every declared workload exists, and every metric's name and unit match.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) == 0 {
		t.Error("BENCHMARK.json declares no workloads")
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, program [][2]string) {
		t.Helper()
		if len(declared) != len(program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(program))
		}
		want := map[string]string{}
		for _, m := range program {
			want[m[0]] = m[1]
		}
		for _, m := range declared {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s]; the program reports unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, perLayerUnits())
}

// TestSmokeWorkloads runs every workload briefly, traced, end to end:
// set-up, both windows, every output check, the counter cross-check and
// the layer replay.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and drives load for several seconds")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, err := run(name, workloads[name](7), 7, options{
				window:  time.Second,
				traced:  true,
				minOps:  40,
				workdir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range perLayerUnits() {
				if _, ok := res.Metrics[m[0]]; !ok {
					t.Errorf("per-layer metric %s missing", m[0])
				}
			}
			if got := res.Metrics["trace.decode.calls"].Value; got == 0 {
				t.Error("the replay decoded nothing")
			}
		})
	}
}

// TestQualityRepeats checks that a closed-loop workload's quality means
// repeat exactly for one seed, though the two runs complete different
// numbers of operations.
func TestQualityRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and drives load")
	}
	var runs [2][]outcome
	for i := range runs {
		r := newSessionDrift(5)
		e, err := r.setup(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r.drive(e, time.Duration(2+i)*time.Second, 2*closedQualityOps)
		e.close()
	}
	// Both runs cover the same prefix of the input stream, however far a
	// slow (race-instrumented) build got.
	limit := min(closedQualityOps, len(runs[0]), len(runs[1]))
	if limit < 64 {
		t.Fatalf("only %d operations completed", limit)
	}
	d0, s0 := quality(runs[0], limit)
	d1, s1 := quality(runs[1], limit)
	if d0 != d1 || s0 != s1 {
		t.Fatalf("quality of the first %d operations differs between runs of one seed: %v/%v vs %v/%v", limit, d0, s0, d1, s1)
	}
}
