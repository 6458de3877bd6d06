package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/trace"
)

// traceBody builds a small valid trace document body for the 4x4 torus. The
// name seeds the content hash, so distinct names force distinct cache keys.
func traceBody(t *testing.T, name string) []byte {
	t.Helper()
	doc := trace.Document{
		Name: name,
		PEs:  16,
		Phases: []trace.Phase{{
			Name: "ring",
			Messages: []trace.Message{
				{Src: 0, Dst: 1, Flits: 2},
				{Src: 1, Dst: 2, Flits: 2},
				{Src: 2, Dst: 3, Flits: 2},
				{Src: 3, Dst: 0, Flits: 2},
			},
		}},
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newWhiteboxServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Topology == nil {
		cfg.Topology = topology.NewTorus(4, 4)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postTrace(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescingExactlyOneCompile hammers one key from many goroutines and
// proves the singleflight group collapses the herd to a single pipeline
// invocation: the leader's compile is held open until every other request
// has joined the flight, so no request can slip through to a second compile
// or a cache hit. Run under -race this also exercises the cache, flight
// group and pool for data races.
func TestCoalescingExactlyOneCompile(t *testing.T) {
	const herd = 16
	s := newWhiteboxServer(t, Config{Workers: 2, QueueDepth: herd})

	var compiles atomic.Int64
	release := make(chan struct{})
	entered := make(chan string, 1)
	s.compileHook = func(key string) {
		if compiles.Add(1) == 1 {
			entered <- key
			<-release
		}
	}

	body := traceBody(t, "herd")
	results := make(chan *httptest.ResponseRecorder, herd)
	var wg sync.WaitGroup

	// The leader: first request reaches the hook and blocks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results <- postTrace(s, "/compile", body)
	}()
	key := <-entered

	// The herd: they must all join the in-flight compile before we let the
	// leader finish.
	for i := 1; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- postTrace(s, "/compile", body)
		}()
	}
	waitFor(t, "herd to join the flight", func() bool {
		return s.flight.waitersFor(key) == herd-1
	})
	close(release)
	wg.Wait()
	close(results)

	var miss, coalesced int
	for rec := range results {
		if rec.Code != http.StatusOK {
			t.Fatalf("request failed: %d %s", rec.Code, rec.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		switch resp.Cache {
		case CacheMiss:
			miss++
		case CacheCoalesced:
			coalesced++
		default:
			t.Fatalf("unexpected cache state %q", resp.Cache)
		}
	}
	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d requests ran %d compiles, want exactly 1", herd, got)
	}
	if miss != 1 || coalesced != herd-1 {
		t.Fatalf("states: %d miss, %d coalesced; want 1 and %d", miss, coalesced, herd-1)
	}
}

// TestManyKeysCompileOncePerKey drives a mixed concurrent load — several
// distinct patterns, several requests each — and asserts the invariant the
// cache and flight group jointly guarantee: one compile per unique key, and
// every response for a key carries the byte-identical artifact.
func TestManyKeysCompileOncePerKey(t *testing.T) {
	const keys, perKey = 8, 8
	s := newWhiteboxServer(t, Config{QueueDepth: keys * perKey})

	var mu sync.Mutex
	compiles := make(map[string]int)
	s.compileHook = func(key string) {
		mu.Lock()
		compiles[key]++
		mu.Unlock()
	}

	type reply struct {
		name string
		resp Response
	}
	replies := make(chan reply, keys*perKey)
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		body := traceBody(t, fmt.Sprintf("pattern-%d", k))
		name := fmt.Sprintf("pattern-%d", k)
		for r := 0; r < perKey; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := postTrace(s, "/compile", body)
				if rec.Code != http.StatusOK {
					t.Errorf("request failed: %d %s", rec.Code, rec.Body.String())
					return
				}
				var resp Response
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				replies <- reply{name, resp}
			}()
		}
	}
	wg.Wait()
	close(replies)
	if t.Failed() {
		t.FailNow()
	}

	artifacts := make(map[string]string)
	for rp := range replies {
		if prev, ok := artifacts[rp.resp.Key]; ok {
			if prev != string(rp.resp.Result) {
				t.Fatalf("key %s served two different artifacts", rp.resp.Key)
			}
		} else {
			artifacts[rp.resp.Key] = string(rp.resp.Result)
		}
	}
	if len(artifacts) != keys {
		t.Fatalf("saw %d distinct keys, want %d", len(artifacts), keys)
	}
	for key, n := range compiles {
		if n != 1 {
			t.Fatalf("key %s compiled %d times, want 1", key, n)
		}
	}
	if len(compiles) != keys {
		t.Fatalf("%d keys compiled, want %d", len(compiles), keys)
	}
}

// TestOverloadReturns429 saturates a 1-worker, 1-slot daemon and asserts
// admission control answers 429 + Retry-After instead of queueing, and that
// the queued work still completes once the worker frees up.
func TestOverloadReturns429(t *testing.T) {
	s := newWhiteboxServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.compileHook = func(string) {
		entered <- struct{}{}
		<-release
	}

	// A occupies the only worker.
	recA := make(chan *httptest.ResponseRecorder, 1)
	go func() { recA <- postTrace(s, "/compile", traceBody(t, "job-a")) }()
	<-entered

	// B fills the only queue slot.
	recB := make(chan *httptest.ResponseRecorder, 1)
	go func() { recB <- postTrace(s, "/compile", traceBody(t, "job-b")) }()
	waitFor(t, "job B to queue", func() bool { return s.pool.Metrics().Depth == 1 })

	// C is over capacity: rejected at admission.
	recC := postTrace(s, "/compile", traceBody(t, "job-c"))
	if recC.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated daemon answered %d, want 429", recC.Code)
	}
	if ra := recC.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	var eb ErrorBody
	if err := json.Unmarshal(recC.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("429 without JSON error body: %v %q", err, recC.Body.String())
	}

	// Release the worker: A and B (and B's hook) complete normally.
	close(release)
	for _, ch := range []chan *httptest.ResponseRecorder{recA, recB} {
		rec := <-ch
		if rec.Code != http.StatusOK {
			t.Fatalf("queued request finished %d: %s", rec.Code, rec.Body.String())
		}
	}
	snap := s.metrics.snapshot(s.topo.Name(), s.scheduler.Name(), s.cache.Metrics(), StoreMetrics{}, s.deltaBound, s.pool.Metrics(), nil)
	ep := snap.Endpoints["compile"]
	if ep.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", ep.Rejected)
	}
}

// TestDrainingReturns503 closes the pool and asserts new compiles are turned
// away as 503 while cached artifacts keep being served.
func TestDrainingReturns503(t *testing.T) {
	s := newWhiteboxServer(t, Config{})
	warm := traceBody(t, "warm")
	if rec := postTrace(s, "/compile", warm); rec.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d", rec.Code)
	}
	s.Close()

	if rec := postTrace(s, "/compile", traceBody(t, "cold")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon answered %d to a cold compile, want 503", rec.Code)
	}
	// The cache needs no workers; hits survive the drain.
	rec := postTrace(s, "/compile", warm)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cache":"hit"`) {
		t.Fatalf("cached artifact not served while draining: %d %s", rec.Code, rec.Body.String())
	}
}

// TestCacheEviction bounds the cache at 2 entries and walks 3 keys through
// it, checking the LRU order and the eviction counter.
func TestCacheEviction(t *testing.T) {
	s := newWhiteboxServer(t, Config{CacheEntries: 2})
	var compiles atomic.Int64
	s.compileHook = func(string) { compiles.Add(1) }

	a, b, c := traceBody(t, "a"), traceBody(t, "b"), traceBody(t, "c")
	for _, body := range [][]byte{a, b, c} { // c evicts a
		if rec := postTrace(s, "/compile", body); rec.Code != http.StatusOK {
			t.Fatalf("compile failed: %d", rec.Code)
		}
	}
	if rec := postTrace(s, "/compile", b); !strings.Contains(rec.Body.String(), `"cache":"hit"`) {
		t.Fatalf("b should still be cached: %s", rec.Body.String())
	}
	if rec := postTrace(s, "/compile", a); !strings.Contains(rec.Body.String(), `"cache":"miss"`) {
		t.Fatalf("a should have been evicted: %s", rec.Body.String())
	}
	m := s.cache.Metrics()
	if m.Entries != 2 || m.Evictions != 2 {
		t.Fatalf("cache metrics %+v, want 2 entries and 2 evictions (a then b)", m)
	}
	if got := compiles.Load(); got != 4 {
		t.Fatalf("%d compiles, want 4 (a, b, c, re-a)", got)
	}
}
