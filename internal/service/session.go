package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
)

// This file is the multi-phase /session serving path. A client posts a
// phase sequence (a plain trace.Document, like /compile) and the daemon
// streams one NDJSON chunk per phase: while the client is still reading
// phase i's chunk, the producer is already resolving phase i+1 — nearest-
// base store lookup plus the core keep/patch/recompile decision — so the
// compile of the next phase pipelines with the serving of the current one.
//
// The per-boundary state is a core.Planner — the same keep/patch/recompile
// loop core.PlanOverlap steps — and lives in the producer goroutine only;
// one session occupies exactly one worker-pool slot for its whole duration,
// so admission control applies to sessions the same way it applies to
// single compiles.

// handleSession serves POST /session.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session"
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, endpoint, http.StatusMethodNotAllowed, fmt.Errorf("service: %s requires POST", endpoint))
		return
	}
	start := time.Now()
	p, err := s.parse(r, w, false)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err)
		return
	}

	// Lookahead-1 channel: the producer may finish compiling phase i+1
	// while phase i's chunk still sits unflushed — deeper lookahead would
	// only hold schedules alive without making the stream faster.
	ch := make(chan sessionMsg, 1)
	// flushed is the index of the last phase chunk written to the client;
	// the producer reads it to detect that it started a compile while the
	// consumer was still serving the previous phase.
	var flushed atomic.Int64
	flushed.Store(-1)

	if err := s.pool.TrySubmit(p.tenant, func() {
		defer close(ch)
		s.runSession(p, ch, &flushed)
	}); err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(int((p.class.RetryAfter+time.Second-1)/time.Second)))
			s.metrics.observeFailure(endpoint, p.tenant, true)
			writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: err.Error()})
		default:
			s.writeErrorClass(w, endpoint, p.tenant, http.StatusServiceUnavailable, err)
		}
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeChunk := func(c SessionChunk) {
		_ = enc.Encode(c)
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeChunk(SessionChunk{
		Type:      SessionChunkHeader,
		Key:       p.key,
		Program:   p.prog.Name,
		PEs:       p.pes,
		Topology:  p.topoName,
		Scheduler: p.schedName,
		Phases:    len(p.prog.Phases),
	})
	failed := false
	var trailer *SessionChunk
	for c := range ch {
		if c.err != nil {
			writeChunk(SessionChunk{Type: SessionChunkError, Error: c.err.Error()})
			failed = true
			break
		}
		writeChunk(c.chunk)
		if c.chunk.Type == SessionChunkPhase {
			flushed.Store(int64(c.chunk.Index))
		} else if c.chunk.Type == SessionChunkDone {
			trailer = &c.chunk
		}
	}
	if failed {
		// Drain so the producer never blocks on a dead channel.
		for range ch {
		}
		s.metrics.observeFailure(endpoint, p.tenant, false)
		return
	}
	if trailer != nil {
		hidden := trailer.SerializedSlots - trailer.TotalSlots
		s.metrics.observeSession(trailer.Decisions, trailer.PipelinedCompiles, hidden, time.Since(start))
	}
}

// sessionMsg is what the producer hands the consumer: a chunk to write, or
// the error that ends the stream.
type sessionMsg struct {
	chunk SessionChunk
	err   error
}

// runSession is the producer: it steps a planner through the phase
// sequence, each changed phase's recompile candidate resolved through
// resolvePhase (store included) without lowering, and emits one chunk per
// phase plus the trailer.
func (s *Server) runSession(p *parsedRequest, ch chan<- sessionMsg, flushed *atomic.Int64) {
	pl := core.NewPlanner(core.DefaultReconfigCost)
	decisions := make(map[string]int, 3)
	pipelined := 0
	for i, ph := range p.prog.Phases {
		if i > 0 && flushed.Load() < int64(i-1) {
			// The previous phase's chunk is not on the wire yet: this
			// compile overlaps serving it.
			pipelined++
		}
		cacheState := CacheUnchanged
		ev, err := pl.Step(ph, func() (*schedule.Result, error) {
			if s.compileHook != nil {
				s.compileHook(p.key)
			}
			if ph.Dynamic {
				cacheState = CacheMiss
				return core.FallbackSchedule(p.topo)
			}
			res, _, state, err := s.resolvePhase(p, p.topo, ph.Requests())
			cacheState = state
			return res, err
		})
		if err != nil {
			ch <- sessionMsg{err: compileError{fmt.Errorf("phase %q: %w", ph.Name, err)}}
			return
		}
		decisions[string(ev.Decision)]++
		res := phaseResult(ph, ev.Schedule, ev.Comm)
		ch <- sessionMsg{chunk: SessionChunk{
			Type:            SessionChunkPhase,
			Index:           i,
			Decision:        string(ev.Decision),
			Cache:           cacheState,
			Stall:           ev.Stall,
			Hidden:          ev.Hidden,
			SerializedStall: ev.SerializedStall,
			Result:          &res,
		}}
	}
	ch <- sessionMsg{chunk: SessionChunk{
		Type:              SessionChunkDone,
		TotalSlots:        pl.Total,
		SerializedSlots:   pl.Serialized,
		BaselineSlots:     pl.Baseline,
		Reconfigurations:  len(p.prog.Phases),
		PipelinedCompiles: pipelined,
		Decisions:         decisions,
	}}
}
