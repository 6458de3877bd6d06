package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/trace"
)

// runner drives one workload. Its state (input streams, drift, the first
// reply seen per key) lives across set-ups and windows, so a second window
// continues the first: compile-cold never reuses a key.
type runner interface {
	// setup builds the system under test, ready to serve.
	setup(workdir string) (*env, error)
	// drive runs the load for one window.
	drive(e *env, window time.Duration, minOps int) []outcome
	// check validates every output of a window, marking failed operations,
	// and cross-checks the client's view against the daemons' counters.
	check(outs []outcome, before, after counters) error
	// replay lists the distinct inputs the traced run replays through the
	// layer functions.
	replay(outs []outcome) []replayInput
	// qualityOps is how many of a window's n operations, by input id, the
	// quality means cover: a count every run reaches, so the means repeat
	// exactly for one seed.
	qualityOps(n int) int
}

// closedQualityOps is how many operations of a closed loop the quality
// means cover.
const closedQualityOps = 512

// minOps is the sample count each run must reach: every third of the
// window then holds 1000 samples, enough for ten beyond its 99th
// percentile.
const minOps = 3 * 1000

// loadCallers is the generator's goroutine and connection count.
const loadCallers = 2

var workloads = map[string]func(seed int64) runner{
	"serve-hit":     newServeHit,
	"compile-cold":  newCompileCold,
	"session-drift": newSessionDrift,
	"cluster-herd":  newClusterHerd,
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }

// verifyReply runs client.Verify on a compile reply, marking o on failure.
func verifyReply(o *outcome, doc trace.Document) bool {
	_, res, err := o.reply.result()
	if err == nil {
		err = client.Verify(doc, res)
	}
	if err != nil {
		o.bad = err.Error()
	}
	return err == nil
}

// eachParallel runs fn on every outcome from loadCallers goroutines. The
// output checks are independent of each other and run after the timed
// window, so both processors may share them.
func eachParallel(outs []outcome, fn func(o *outcome)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < loadCallers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(outs); i = int(next.Add(1) - 1) {
				fn(&outs[i])
			}
		}()
	}
	wg.Wait()
}

// expectEqual is one counter cross-check.
func expectEqual(what string, daemon, observed int) error {
	if daemon != observed {
		return fmt.Errorf("counter cross-check: %s: daemon counted %d, client observed %d", what, daemon, observed)
	}
	return nil
}

// cacheCounts tallies the cache states the client observed on successful
// compile and recompile replies.
func cacheCounts(outs []outcome) map[string]int {
	m := make(map[string]int)
	for i := range outs {
		o := &outs[i]
		if o.err == nil && !o.session {
			m[o.cache]++
		}
		if o.peer != nil && o.peer.err == nil {
			m[o.peer.cache]++
		}
	}
	return m
}

// crossCheck compares the observed cache states of the endpoints' replies
// with the daemons' counter deltas.
func crossCheck(outs []outcome, before, after counters, endpoints ...string) error {
	d := endpointDelta(before, after, endpoints...)
	seen := cacheCounts(outs)
	return errors.Join(
		expectEqual("hits", int(d.Hits), seen[service.CacheHit]),
		expectEqual("misses", int(d.Misses), seen[service.CacheMiss]),
		expectEqual("store hits", int(d.StoreHits), seen[service.CacheStore]),
		expectEqual("peer hits", int(d.PeerHits), seen[service.CachePeer]),
		expectEqual("coalesced", int(d.Coalesced), seen[service.CacheCoalesced]),
	)
}

// --- serve-hit ----------------------------------------------------------

// serveHitRate is serve-hit's offered rate in requests per second.
const serveHitRate = 160

type serveHit struct {
	rng   *rand.Rand
	set   []input
	ranks []int
	// first is the first reply seen per key (the set-up's cold compile),
	// which every later hit must equal byte for byte.
	first map[string][32]byte
	// preload holds the set-up's replies, validated after the window.
	preload []outcome
}

func newServeHit(seed int64) runner {
	set := hitWorkingSet()
	return &serveHit{rng: rand.New(rand.NewSource(seed)), set: set, ranks: hitRanks(set)}
}

func (w *serveHit) setup(string) (*env, error) {
	e := newEnv()
	if err := e.startDaemons(1, service.Config{}, false); err != nil {
		return e, err
	}
	w.first = make(map[string][32]byte, len(w.set))
	w.preload = make([]outcome, len(w.set))
	for i := range w.set {
		o := &w.preload[i]
		compileOp(context.Background(), e, e.daemons[0].cl, &w.set[i], -1, o)
		if o.err != nil {
			return e, fmt.Errorf("preload %s: %w", w.set[i].doc.Name, o.err)
		}
		if o.cache != service.CacheMiss {
			return e, fmt.Errorf("preload %s: cache %q, want a cold compile", w.set[i].doc.Name, o.cache)
		}
		raw, _, err := o.reply.result()
		if err != nil {
			return e, fmt.Errorf("preload %s: %w", w.set[i].doc.Name, err)
		}
		w.first[o.key] = digest(raw)
	}
	return e, nil
}

func (w *serveHit) drive(e *env, window time.Duration, minOps int) []outcome {
	n := int(serveHitRate * window.Seconds())
	draws := zipfDraws(w.rng, len(w.set), n)
	for i, r := range draws {
		draws[i] = w.ranks[r]
	}
	cl := e.daemons[0].cl
	return openLoop(n, serveHitRate, loadCallers, func(i int, o *outcome) {
		in := &w.set[draws[i]]
		o.input = draws[i]
		compileOp(context.Background(), e, cl, in, -1, o)
		o.doc = &in.doc
	})
}

func (w *serveHit) check(outs []outcome, before, after counters) error {
	// Every distinct artifact is the set-up's cold compile of its key.
	bad := map[string]string{}
	for i := range w.preload {
		if p := &w.preload[i]; !verifyReply(p, w.set[i].doc) {
			bad[p.key] = p.bad
		}
	}
	eachParallel(outs, func(o *outcome) {
		if o.err != nil {
			return
		}
		raw, _, err := o.reply.result()
		switch want, ok := w.first[o.key]; {
		case err != nil:
			o.bad = err.Error()
		case o.cache != service.CacheHit:
			o.bad = fmt.Sprintf("cache %q on a preloaded key", o.cache)
		case !ok || digest(raw) != want:
			o.bad = "hit differs from the first reply for its key"
		case bad[o.key] != "":
			o.bad = bad[o.key]
		}
	})
	return crossCheck(outs, before, after, "compile")
}

// qualityOps covers the whole window: an open loop's operation count is
// fixed by its rate.
func (w *serveHit) qualityOps(n int) int { return n }

func (w *serveHit) replay(outs []outcome) []replayInput {
	out := make([]replayInput, len(w.set))
	for i := range w.set {
		out[i] = replayInput{id: i, in: w.set[i], mask: -1}
	}
	return out
}

// --- compile-cold ---------------------------------------------------------

type compileCold struct {
	gen  *coldGen
	next int // first input id of the next window
}

func newCompileCold(seed int64) runner { return &compileCold{gen: newColdGen(seed)} }

func (w *compileCold) setup(string) (*env, error) {
	e := newEnv()
	if err := e.startDaemons(1, service.Config{}, false); err != nil {
		return e, err
	}
	// First compile on each topology: torus routes and the dragonfly's
	// parse and route tables are built here, not in the timed window.
	for _, in := range warmInputs() {
		o := outcome{}
		compileOp(context.Background(), e, e.daemons[0].cl, &in, -1, &o)
		if o.err != nil {
			return e, o.err
		}
	}
	return e, nil
}

func (w *compileCold) drive(e *env, window time.Duration, minOps int) []outcome {
	cl := e.daemons[0].cl
	base := w.next
	outs := closedLoop(window, loadCallers, minOps, func(c, k int, o *outcome) {
		o.id = base + k*loadCallers + c
		o.input = o.id
		in := w.gen.input(o.id)
		compileOp(context.Background(), e, cl, &in, -1, o)
	})
	for _, o := range outs {
		w.next = max(w.next, o.id+1)
	}
	return outs
}

func (w *compileCold) check(outs []outcome, before, after counters) error {
	eachParallel(outs, func(o *outcome) {
		switch {
		case o.err != nil:
		case o.cache != service.CacheMiss:
			o.bad = fmt.Sprintf("cache %q on a never-seen key", o.cache)
		default:
			verifyReply(o, w.gen.input(o.id).doc)
		}
	})
	return crossCheck(outs, before, after, "compile")
}

func (w *compileCold) qualityOps(int) int { return closedQualityOps }

func (w *compileCold) replay(outs []outcome) []replayInput {
	return firstInputs(outs, 48, func(o *outcome) replayInput {
		return replayInput{id: o.id, in: w.gen.input(o.id), mask: -1}
	})
}

// firstInputs maps the n lowest-id successful operations to replay inputs.
func firstInputs(outs []outcome, n int, f func(o *outcome) replayInput) []replayInput {
	idx := make([]int, 0, len(outs))
	for i := range outs {
		if !outs[i].failed() {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return outs[idx[a]].id < outs[idx[b]].id })
	var out []replayInput
	for _, i := range idx[:min(n, len(idx))] {
		out = append(out, f(&outs[i]))
	}
	return out
}

// --- session-drift ----------------------------------------------------------

// sessionCycle is what session-drift's single caller sends, in order,
// repeatedly: P streams p3m-64 (every phase a new pattern), R the
// keep-heavy ring all-reduce, M the next drifting MoE document, and F
// (every fourth operation) a /recompile of the latest MoE document with
// one failed link. One caller keeps the store state each request meets,
// and with it every schedule, the same from run to run. The mix puts the
// median inside the /recompile class and the 99th percentile inside
// p3m-64's, so neither sits on the edge between two classes.
const sessionCycle = "PMRFMRMFRMRFMRMFRMRFMRMFRMRFMRRF"

const moeSteps = 2 // dispatch rounds per MoE session document

type sessionDrift struct {
	seed int64
	p3m  trace.Document
	ring []trace.Document
	moe  *moeDrift
	// lastMoE is the MoE document sent last; linkRng draws the failed link
	// of each /recompile.
	lastMoE *trace.Document
	linkRng *rand.Rand
	next    int
}

func newSessionDrift(seed int64) runner {
	w := &sessionDrift{seed: seed, p3m: p3m64()}
	for t := 0; t < 4; t++ {
		w.ring = append(w.ring, ringIteration(t))
	}
	return w
}

func (w *sessionDrift) setup(workdir string) (*env, error) {
	e := newEnv()
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return e, err
	}
	e.dir = dir
	if err := e.startDaemons(1, service.Config{StoreDir: dir}, false); err != nil {
		return e, err
	}
	// Preload: the first iteration of every family, so the store holds
	// their bases before the window and in the same order every run.
	w.moe = newMoEDrift(w.seed)
	w.linkRng = rand.New(rand.NewSource(w.seed ^ 0x11))
	moe := w.moe.iteration(moeSteps)
	w.lastMoE = &moe
	w.next = 0
	for _, doc := range []*trace.Document{&w.p3m, &w.ring[0], w.lastMoE} {
		o := outcome{}
		sessionOp(context.Background(), e, e.daemons[0].cl, doc, &o)
		if o.err != nil {
			return e, fmt.Errorf("preload %s: %w", doc.Name, o.err)
		}
	}
	return e, nil
}

func (w *sessionDrift) drive(e *env, window time.Duration, minOps int) []outcome {
	cl := e.daemons[0].cl
	base := w.next
	outs := closedLoop(window, 1, minOps, func(_, k int, o *outcome) {
		o.id = base + k
		o.input = o.id
		switch sessionCycle[o.id%len(sessionCycle)] {
		case 'P':
			sessionOp(context.Background(), e, cl, &w.p3m, o)
		case 'R':
			sessionOp(context.Background(), e, cl, &w.ring[o.id%len(w.ring)], o)
		case 'M':
			doc := w.moe.iteration(moeSteps)
			w.lastMoE = &doc
			sessionOp(context.Background(), e, cl, w.lastMoE, o)
		default:
			in := input{doc: *w.lastMoE}
			compileOp(context.Background(), e, cl, &in, failedLink(w.linkRng), o)
			o.doc = w.lastMoE
		}
	})
	w.next += len(outs)
	return outs
}

func (w *sessionDrift) check(outs []outcome, before, after counters) error {
	eachParallel(outs, func(o *outcome) {
		switch {
		case o.err != nil:
		case !o.session:
			verifyReply(o, *o.doc)
		default:
			res, err := o.reply.session()
			if err == nil {
				err = client.VerifySession(*o.doc, res)
			}
			if err != nil {
				o.bad = err.Error()
				return
			}
			o.decisions = res.Decisions()
		}
	})
	sessions, recompiles := 0, 0
	decisions := map[string]int{}
	for i := range outs {
		o := &outs[i]
		if !o.session && o.mask >= 0 {
			recompiles++
			continue
		}
		sessions++
		for d, n := range o.decisions {
			decisions[d] += n
		}
	}
	sum := func(f func(m *service.MetricsSnapshot) uint64) int {
		return int(f(after.metrics[0]) - f(before.metrics[0]))
	}
	return errors.Join(
		expectEqual("session requests", int(endpointDelta(before, after, "session").Requests), sessions),
		expectEqual("recompile requests", int(endpointDelta(before, after, "recompile").Requests), recompiles),
		expectEqual("keep decisions", sum(func(m *service.MetricsSnapshot) uint64 { return m.Session.Keep }), decisions["keep"]),
		expectEqual("patch decisions", sum(func(m *service.MetricsSnapshot) uint64 { return m.Session.Patch }), decisions["patch"]),
		expectEqual("recompile decisions", sum(func(m *service.MetricsSnapshot) uint64 { return m.Session.Recompile }), decisions["recompile"]),
		crossCheck(outs, before, after, "recompile"),
	)
}

func (w *sessionDrift) qualityOps(int) int { return closedQualityOps }

func (w *sessionDrift) replay(outs []outcome) []replayInput {
	return firstInputs(outs, 24, func(o *outcome) replayInput {
		return replayInput{id: o.id, in: input{doc: *o.doc}, mask: o.mask, session: o.session}
	})
}

// --- cluster-herd -----------------------------------------------------------

const clusterMembers = 3

type clusterHerd struct {
	seed int64
	next int
	ring *cluster.Ring
	urls []string
}

func newClusterHerd(seed int64) runner { return &clusterHerd{seed: seed} }

func (w *clusterHerd) setup(string) (*env, error) {
	e := newEnv()
	if err := e.startDaemons(clusterMembers, service.Config{}, true); err != nil {
		return e, err
	}
	w.urls = w.urls[:0]
	for _, d := range e.daemons {
		w.urls = append(w.urls, d.url)
	}
	w.ring = cluster.NewRing(w.urls, cluster.DefaultVNodes)
	// First compile on the torus, through the cluster.
	warm := herdInput(w.seed, -1)
	o := outcome{}
	compileOp(context.Background(), e, e.daemons[0].cl, &warm, -1, &o)
	if o.err != nil {
		return e, o.err
	}
	if got, want := e.daemons[0].node.Owners(o.key), w.ring.Owners(o.key, cluster.DefaultReplication); fmt.Sprint(got) != fmt.Sprint(want) {
		return e, fmt.Errorf("ring mismatch: node says %v, benchmark computes %v", got, want)
	}
	return e, nil
}

// targets picks the two members job j goes to: its primary owner and the
// member outside its replica set. The non-owner forwards to the primary,
// so the key compiles exactly once cluster-wide.
func (w *clusterHerd) targets(e *env, doc trace.Document) (primary, other *daemon, err error) {
	key, err := service.KeyForDocument(doc, torusName, "combined")
	if err != nil {
		return nil, nil, err
	}
	owners := w.ring.Owners(key, cluster.DefaultReplication)
	for _, d := range e.daemons {
		switch {
		case d.url == owners[0]:
			primary = d
		case !slices.Contains(owners, d.url):
			other = d
		}
	}
	return primary, other, nil
}

func (w *clusterHerd) drive(e *env, window time.Duration, minOps int) []outcome {
	type job struct {
		in *input
		d  *daemon
		o  *outcome
	}
	var callers [2]chan job
	var wg sync.WaitGroup
	done := make(chan struct{}, 2)
	for c := range callers {
		callers[c] = make(chan job)
		wg.Add(1)
		go func(jobs <-chan job) {
			defer wg.Done()
			for j := range jobs {
				compileOp(context.Background(), e, j.d.cl, j.in, -1, j.o)
				done <- struct{}{}
			}
		}(callers[c])
	}
	var outs []outcome
	start := time.Now()
	free := start
	for j := w.next; ; j++ {
		el := time.Since(start)
		if el >= 3*window || (el >= window && len(outs) >= minOps) {
			break
		}
		in := herdInput(w.seed, j)
		primary, other, err := w.targets(e, in.doc)
		o := outcome{id: j, input: j, peer: &outcome{id: j, input: j}}
		if err != nil {
			o.err = err
			outs = append(outs, o)
			continue
		}
		// The two callers take turns at the primary, rotating the pairing.
		a, b := primary, other
		if j%2 == 1 {
			a, b = other, primary
		}
		o.due = time.Now()
		o.peer.due = o.due
		o.late = o.due.Sub(free)
		callers[0] <- job{&in, a, &o}
		callers[1] <- job{&in, b, o.peer}
		<-done
		<-done
		if o.peer.end.After(o.end) {
			o.end = o.peer.end
		}
		free = o.end
		outs = append(outs, o)
	}
	for _, c := range callers {
		close(c)
	}
	wg.Wait()
	w.next += len(outs)
	return outs
}

func (w *clusterHerd) check(outs []outcome, before, after counters) error {
	jobs := len(outs)
	eachParallel(outs, func(o *outcome) {
		switch {
		case o.err != nil || o.peer.err != nil:
		case o.key != o.peer.key:
			o.bad = "replies name different keys"
		case !sameResult(o, o.peer):
			o.bad = "replies differ across nodes"
		default:
			verifyReply(o, herdInput(w.seed, o.id).doc)
		}
	})
	// The owner also serves the forwarded copy of each job, which the
	// client never sees: every job is two client requests plus one peer
	// hop, one compile, and one peer hit on the non-owner.
	d := endpointDelta(before, after, "compile")
	seen := cacheCounts(outs)
	var forwards int
	for i := range after.cluster {
		forwards += int(after.cluster[i].Forward.PeerCompiles - before.cluster[i].Forward.PeerCompiles)
	}
	return errors.Join(
		expectEqual("compiles (one per job)", int(d.Misses), jobs),
		expectEqual("peer hits", int(d.PeerHits), seen[service.CachePeer]),
		expectEqual("requests", int(d.Requests), 2*jobs+forwards),
		expectEqual("forwarded compiles", forwards, seen[service.CachePeer]),
	)
}

// sameResult reports whether two replies carry byte-identical results.
func sameResult(a, b *outcome) bool {
	ra, _, errA := a.reply.result()
	rb, _, errB := b.reply.result()
	return errA == nil && errB == nil && bytes.Equal(ra, rb)
}

func (w *clusterHerd) qualityOps(int) int { return closedQualityOps }

func (w *clusterHerd) replay(outs []outcome) []replayInput {
	return firstInputs(outs, 48, func(o *outcome) replayInput {
		return replayInput{id: o.id, in: herdInput(w.seed, o.id), mask: -1}
	})
}
