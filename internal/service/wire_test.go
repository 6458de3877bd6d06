package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/trace"
)

// stubPeers is a PeerResolver that answers every key with fixed bytes.
type stubPeers struct{ raw string }

func (p stubPeers) Resolve(PeerContext) (json.RawMessage, bool) { return json.RawMessage(p.raw), true }

// assertSpliced checks that a /compile or /recompile reply is byte for byte
// what writeJSON makes of the same envelope, and returns the envelope.
func assertSpliced(t *testing.T, rec *httptest.ResponseRecorder, wantState string) Response {
	t.Helper()
	resp := decodeResponse(t, rec)
	if resp.Cache != wantState {
		t.Fatalf("cache state %q, want %q", resp.Cache, wantState)
	}
	ref := httptest.NewRecorder()
	writeJSON(ref, http.StatusOK, resp)
	if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("%s reply differs from writeJSON:\n%s\n%s", wantState, rec.Body.Bytes(), ref.Body.Bytes())
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
	return resp
}

func TestSplicedReplyMatchesWriteJSON(t *testing.T) {
	s := newWhiteboxServer(t, Config{StoreDir: t.TempDir(), CacheEntries: 1})
	bodyA, bodyB := traceBody(t, "splice-a"), traceBody(t, "splice-b")
	for _, path := range []string{"/compile", "/recompile?links=3"} {
		assertSpliced(t, postTrace(s, path, bodyA), CacheMiss)
		assertSpliced(t, postTrace(s, path, bodyA), CacheHit)
		assertSpliced(t, postTrace(s, path, bodyB), CacheMiss) // evicts A
		assertSpliced(t, postTrace(s, path, bodyA), CacheStore)
	}
}

// TestPeerArtifactInstalledCanonical installs a peer artifact with
// whitespace and characters json.Marshal escapes: the reply, the cache hit
// after it and the stored copy must all be the canonical bytes.
func TestPeerArtifactInstalledCanonical(t *testing.T) {
	s := newWhiteboxServer(t, Config{StoreDir: t.TempDir()})
	s.SetPeers(stubPeers{raw: "{ \"program\": \"a<b>&c\u2028\",\n  \"pes\": 16 }"})
	body := traceBody(t, "peer")
	first := assertSpliced(t, postTrace(s, "/compile", body), CachePeer)
	const want = `{"program":"a\u003cb\u003e\u0026c\u2028","pes":16}`
	if string(first.Result) != want {
		t.Fatalf("installed %s, want %s", first.Result, want)
	}
	assertSpliced(t, postTrace(s, "/compile", body), CacheHit)
	stored, _, ok := s.storeGetArtifactOwned(first.Key)
	if !ok || string(stored) != want {
		t.Fatalf("stored %q (found %v), want %s", stored, ok, want)
	}
	if got, err := CanonicalArtifact([]byte(want)); err != nil || string(got) != want {
		t.Fatalf("CanonicalArtifact changed canonical bytes: %s, %v", got, err)
	}
}

// TestInvalidPeerArtifactCompilesLocally: bytes that are not JSON are never
// installed; the request compiles locally instead.
func TestInvalidPeerArtifactCompilesLocally(t *testing.T) {
	s := newWhiteboxServer(t, Config{})
	s.SetPeers(stubPeers{raw: `{"program":`})
	resp := assertSpliced(t, postTrace(s, "/compile", traceBody(t, "bad-peer")), CacheMiss)
	if _, err := DecodeResult(resp.Result); err != nil {
		t.Fatalf("local compile: %v", err)
	}
	if err := s.ArtifactPutOwned("k", "", json.RawMessage(`[1,`)); err == nil {
		t.Fatal("ArtifactPutOwned accepted invalid JSON")
	}
	if _, _, ok := s.ArtifactGetOwned("k"); ok {
		t.Fatal("invalid artifact was installed")
	}
}

func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, Response{Key: "k", Cache: CacheHit, Result: json.RawMessage(`{bad`)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "encoding reply") {
		t.Fatalf("body %q (%v), want a JSON error", rec.Body.String(), err)
	}
}

// TestDeclaredBodySizeIsNotPreallocated: a request that declares the
// largest accepted body and sends a few bytes is refused without the
// daemon allocating what it declared.
func TestDeclaredBodySizeIsNotPreallocated(t *testing.T) {
	s := newWhiteboxServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(`{"pes":16}`))
	req.ContentLength = maxBodyBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= maxBodyBytes/2 {
		t.Fatalf("allocated %d bytes for a body declaring %d", got, maxBodyBytes)
	}
}

// TestTopologyQueryKeepsRouteCache: requests naming a topology by query
// share one parsed value, so they share one route table instead of
// flushing the route cache every 64 requests.
func TestTopologyQueryKeepsRouteCache(t *testing.T) {
	s := newWhiteboxServer(t, Config{Topology: topology.NewTorus(8, 8)})
	decodeResponse(t, postTrace(s, "/compile", readP3M64(t)))
	topos, paths := network.RouteCacheStats()
	for i := 0; i < 100; i++ {
		doc := trace.Document{Name: fmt.Sprintf("df-%d", i), PEs: 512, Phases: []trace.Phase{{
			Name:     "p",
			Messages: []trace.Message{{Src: i, Dst: 511 - i, Flits: 1}},
		}}}
		var buf bytes.Buffer
		if err := trace.Write(&buf, doc); err != nil {
			t.Fatal(err)
		}
		decodeResponse(t, postTrace(s, "/compile?topology=dragonfly:8,16,4", buf.Bytes()))
	}
	gotTopos, gotPaths := network.RouteCacheStats()
	if gotTopos > topos+1 {
		t.Fatalf("route cache tracks %d topologies after 100 dragonfly requests, want at most %d", gotTopos, topos+1)
	}
	if gotPaths < paths {
		t.Fatalf("route cache lost paths: %d -> %d", paths, gotPaths)
	}
}

// TestRepliesTakeFastPath: the daemon's own replies are inside the subset
// the scanner accepts, so clients never fall back to encoding/json.
func TestRepliesTakeFastPath(t *testing.T) {
	s := newWhiteboxServer(t, Config{Topology: topology.NewTorus(8, 8)})
	for _, path := range []string{"/compile", "/recompile?links=3,17"} {
		rec := postTrace(s, path, readP3M64(t))
		resp, ok := decodeResponseFast(rec.Body.Bytes())
		if !ok {
			t.Fatalf("%s: scanner refused the reply envelope", path)
		}
		res, ok := decodeResultFast(resp.Result)
		if !ok {
			t.Fatalf("%s: scanner refused the artifact", path)
		}
		var want Result
		if err := json.Unmarshal(resp.Result, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: fast decode differs from encoding/json", path)
		}
	}
}

// responseSeeds are replies at the edges of the fast path's subset.
var responseSeeds = []string{
	`{"key":"k","cache":"hit","result":{"program":"p","pes":4,"topology":"torus-2x2","scheduler":"combined","max_degree":1,"reconfigurations":1,"total_slots":3,"phases":[{"name":"a","algorithm":"greedy","degree":1,"predicted_slots":2,"configs":[[[0,1],[1,0]]]}]}}`,
	`{"key":"k","cache":"miss","result":{"faults":{"links":[3],"nodes":[]},"phases":[{"name":"d","dynamic":true,"fallback":true,"configs":[]}]}}` + "\n",
	`{"key":"k","cache":"hit","result":{"phases":[{"configs":[[[0]]]}]}}`,
	`{"key":"k","cache":"hit","result":{"phases":[{"configs":[[[0,1,2]]]}]}}`,
	`{"key":"k","Cache":"hit","result":{}}`,
	"{\"\u212aey\":\"k\",\"result\":{\"ſcheduler\":\"x\"}}",
	`{"key":"\u006b","cache":"hit","result":{"program":"\u003c"}}`,
	`{"key":"k","key":"j","result":{"pes":1,"pes":2}}`,
	`{"key":null,"cache":"hit","result":null}`,
	`{"key":"k","result":{"pes":1e2,"total_slots":1.0,"max_degree":-0}}`,
	`{"key":"k","result":{"pes":01}}`,
	`{"key":"k","result":{"pes":12345678901234567890}}`,
	`{"key":"k","result":{}} trailing`,
	"{\"key\":\"k\xff\",\"result\":{\"program\":\"\xc3\x28\"}}",
	`{"key":"k","result":[[[[[[[[[[]]]]]]]]]]}`,
}

// FuzzDecodeResponse checks the fast path's invariant on replies: an
// envelope or artifact the scanner accepts is accepted by encoding/json
// too, with a reflect.DeepEqual value.
func FuzzDecodeResponse(f *testing.F) {
	for _, seed := range responseSeeds {
		f.Add([]byte(seed))
	}
	// The trace reader's corpus: documents, not replies, so they probe
	// the scanner's refusals of unknown keys.
	corpus, err := filepath.Glob("../trace/testdata/fuzz/FuzzRead/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range corpus {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if quoted, ok := strings.CutPrefix(line, "[]byte("); ok {
				v, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					f.Fatalf("%s: %v", name, err)
				}
				f.Add([]byte(v))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := decodeResponseFast(data); ok {
			var want Response
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("envelope accepted by the fast path, rejected by encoding/json (%v): %q", err, data)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("envelope decodes differ on %q:\n%#v\n%#v", data, fast, want)
			}
			data = fast.Result
		}
		if fast, ok := decodeResultFast(data); ok {
			var want Result
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("artifact accepted by the fast path, rejected by encoding/json (%v): %q", err, data)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("artifact decodes differ on %q:\n%#v\n%#v", data, fast, want)
			}
		}
	})
}

func BenchmarkParse(b *testing.B) {
	moe, err := collective.MoEAllToAll(512, 2, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	var moeBody bytes.Buffer
	if err := json.NewEncoder(&moeBody).Encode(trace.FromProgram(moe.Program(1), 512)); err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name, query string
		body        []byte
	}{
		{"p3m64", "", readP3M64(b)},
		{"moe512", "?topology=dragonfly:8,16,4", moeBody.Bytes()},
	}
	s := newWhiteboxServer(b, Config{Topology: topology.NewTorus(8, 8)})
	for _, c := range cases {
		parse := func(b *testing.B) {
			r := httptest.NewRequest(http.MethodPost, "/compile"+c.query, bytes.NewReader(c.body))
			if _, err := s.parse(r, httptest.NewRecorder(), false); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			parse(b) // builds the named topology once
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parse(b)
			}
		})
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	s := newWhiteboxServer(b, Config{Topology: topology.NewTorus(8, 8)})
	rec := postTrace(s, "/compile", readP3M64(b))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
	data := rec.Body.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := DecodeResponse(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeResult(resp.Result); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandlerMiss(b *testing.B) {
	b.Run("ring64", func(b *testing.B) {
		ring, err := collective.RingAllReduce(64, 64)
		if err != nil {
			b.Fatal(err)
		}
		doc := trace.FromProgram(ring.Program(1), 64)
		s := newWhiteboxServer(b, Config{Topology: topology.NewTorus(8, 8), CacheEntries: 1})
		bodies := make([][]byte, b.N)
		for i := range bodies {
			doc.Name = fmt.Sprintf("ring-%d", i) // a new key per request
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(doc); err != nil {
				b.Fatal(err)
			}
			bodies[i] = buf.Bytes()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := postTrace(s, "/compile", bodies[i]); rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
}
