package main

import (
	"bytes"
	"context"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/trace"
)

// outcome is one operation as the client saw it, plus what the output
// checks need afterwards.
type outcome struct {
	id int // operation id, unique within a run
	// input is the id of the operation's input, the key of its replay.
	input int
	// due is when the operation was due (open loop) or sent (closed loop);
	// latency and first chunk are measured from it.
	due, firstAt, end time.Time
	// late is how far the generator, not the daemon, made the send lag.
	late time.Duration
	err  error

	doc   *trace.Document
	key   string
	cache string
	reply reply
	// session marks a /session operation; mask is the failed link of a
	// /recompile, -1 otherwise.
	session bool
	mask    int
	// decisions tallies a checked /session's keep/patch/recompile choices.
	decisions map[string]int
	// peer holds cluster-herd's second reply to the same job.
	peer *outcome
	// bad marks an operation whose output failed a check.
	bad string
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

func (o *outcome) firstChunk() time.Duration {
	if o.firstAt.IsZero() {
		return o.latency()
	}
	return o.firstAt.Sub(o.due)
}

// failed reports whether the operation counts against fail_ratio.
func (o *outcome) failed() bool {
	return o.err != nil || o.bad != "" || (o.peer != nil && o.peer.failed())
}

// withFirstByte returns a context that stamps o.firstAt when the reply's
// first byte arrives.
func withFirstByte(ctx context.Context, o *outcome) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { o.firstAt = time.Now() },
	})
}

// compileOp posts one /compile (or /recompile when mask >= 0) and records
// the reply into o.
func compileOp(ctx context.Context, e *env, cl *client.Client, in *input, mask int, o *outcome) {
	if o.due.IsZero() {
		o.due = time.Now()
	}
	var body bytes.Buffer
	e.clientSpan(ctx, int64(o.id), func(ctx context.Context) {
		ctx = context.WithValue(withFirstByte(ctx, o), teeKey{}, &body)
		opt := client.Options{Topology: in.topology}
		var resp *service.Response
		var err error
		if mask >= 0 {
			resp, _, err = cl.Recompile(ctx, in.doc, service.FaultMask{Links: []int{mask}}, opt)
		} else {
			resp, _, err = cl.Compile(ctx, in.doc, opt)
		}
		o.end = time.Now()
		o.mask, o.err = mask, err
		if err == nil {
			o.key, o.cache = resp.Key, resp.Cache
		}
	})
	if o.err == nil {
		o.reply, o.err = e.spill.keep(body.Bytes())
	}
}

// sessionOp posts one /session and drains its stream into o.
func sessionOp(ctx context.Context, e *env, cl *client.Client, doc *trace.Document, o *outcome) {
	o.due = time.Now()
	var body bytes.Buffer
	e.clientSpan(ctx, int64(o.id), func(ctx context.Context) {
		ctx = context.WithValue(ctx, teeKey{}, &body)
		res, err := cl.Session(ctx, *doc, client.Options{}, func(service.SessionChunk) {
			if o.firstAt.IsZero() {
				o.firstAt = time.Now()
			}
		})
		o.end = time.Now()
		o.doc, o.mask, o.session, o.err = doc, -1, true, err
		if err == nil {
			o.key = res.Header.Key
		}
	})
	if o.err == nil {
		o.reply, o.err = e.spill.keep(body.Bytes())
	}
}

// openLoop sends n operations on a fixed schedule, operation i due at
// start + i/rate, from senders goroutines. A sender that is still busy
// when an operation falls due sends it late, and its latency, measured
// from the due time, includes that wait.
func openLoop(n int, rate float64, senders int, op func(i int, o *outcome)) []outcome {
	outs := make([]outcome, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := &outs[i]
				o.id, o.due = i, due
				// Lateness the generator caused: from the later of the due
				// time and this sender becoming free, to the actual send.
				o.late = sent.Sub(laterOf(due, free))
				op(i, o)
				free = time.Now()
			}
		}()
	}
	wg.Wait()
	return outs
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// closedLoop runs callers goroutines that each send their next operation
// as soon as the previous one completed, until the window has passed and
// at least minOps operations have completed (capped at three windows).
// Caller c's k-th operation has input id k*callers + c.
func closedLoop(window time.Duration, callers, minOps int, op func(caller, k int, o *outcome)) []outcome {
	start := time.Now()
	var done atomic.Int64
	per := make([][]outcome, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			free := time.Now()
			for k := 0; ; k++ {
				el := time.Since(start)
				if el >= 3*window || (el >= window && int(done.Load()) >= minOps) {
					return
				}
				o := outcome{id: k*callers + c}
				op(c, k, &o)
				// For a closed loop the generator's lateness is the time
				// it spent between a reply and the next send.
				o.late = o.due.Sub(free)
				free = o.end
				per[c] = append(per[c], o)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs
}
