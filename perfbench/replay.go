package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/optics"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/switchprog"
	"repro/internal/topology"
	"repro/internal/trace"
)

// replayInput is one distinct input the traced run replays serially
// through the layer functions.
type replayInput struct {
	id int // the input id live operations on this input carry
	in input
	// mask is the failed link of a /recompile; -1 otherwise.
	mask int
	// session replays the /session path: store, delta and core as well.
	session bool
}

// replayReq offsets replayed inputs' request ids away from live ones.
const replayReq = int64(1) << 40

// replayStats are the ratios the replay measures besides its spans.
type replayStats struct {
	degreeOverLB []float64
	bodyKB       []float64
}

// replay runs every input through the daemon's layers in the daemon's
// order for its endpoint, recording a span around each call. /compile:
// trace.Read, service.KeyForDocument, then per phase Scheduler.Schedule,
// switchprog.Compile and sim.RunCompiled, then json.Marshal of the result
// and of its envelope. /session resolves each changed phase through the
// store (a stored schedule, else a fresh one written back), patches the
// previous schedule with delta and lets core choose, keeping unchanged
// phases outright, and marshals one chunk per phase. /recompile runs
// fault.Recompile and the optics light-trace check per phase. Every input
// ends with the client's decode of the reply.
func replay(rec *recorder, inputs []replayInput, st *store.Store) (replayStats, error) {
	var rs replayStats
	// The daemon serves a /session from a store that already holds the
	// program's earlier patterns; an unrecorded first pass gives the
	// replay's store the same.
	for _, ri := range inputs {
		if ri.session {
			if err := replayOne(nil, ri, st, &replayStats{}); err != nil {
				return rs, fmt.Errorf("replay %s: %w", ri.in.doc.Name, err)
			}
		}
	}
	for _, ri := range inputs {
		if err := replayOne(rec, ri, st, &rs); err != nil {
			return rs, fmt.Errorf("replay %s: %w", ri.in.doc.Name, err)
		}
	}
	return rs, nil
}

func replayOne(rec *recorder, ri replayInput, st *store.Store, rs *replayStats) error {
	req := replayReq + int64(ri.id)
	root := rec.newID()
	rootStart := rec.now()
	defer func() { rec.add(span{ID: root, Req: req, Name: "replay", Start: rootStart, End: rec.now()}) }()
	at := func(name string, fn func()) { rec.time(name, root, req, fn) }

	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(ri.in.doc); err != nil {
		return err
	}
	rs.bodyKB = append(rs.bodyKB, float64(body.Len())/1024)
	var topo network.Topology = topology.NewTorus(8, 8)
	if ri.in.topology != "" {
		t, err := topology.Parse(ri.in.topology)
		if err != nil {
			return err
		}
		topo = t
	}
	topoName := topo.Name()
	sched := schedule.Combined{}

	var doc trace.Document
	var err error
	at("trace.decode", func() { doc, err = trace.Read(bytes.NewReader(body.Bytes())) })
	if err != nil {
		return err
	}
	var key string
	at("service.key", func() { key, err = service.KeyForDocument(doc, topoName, sched.Name()) })
	if err != nil {
		return err
	}
	prog, err := doc.Program()
	if err != nil {
		return err
	}
	res := service.Result{Program: prog.Name, PEs: doc.PEs, Topology: topoName, Scheduler: sched.Name()}
	var replies [][]byte // what the client decodes: one envelope, or one chunk per phase
	var prev *schedule.Result
	prevComm := 0
	for i, ph := range prog.Phases {
		reqs := ph.Requests()
		var s *schedule.Result
		comm := 0
		switch {
		case ri.mask >= 0:
			s, err = replayRecompile(at, topo, reqs, ri.mask)
		case ri.session && prev != nil && core.SameMessages(ph.Messages, prog.Phases[i-1].Messages):
			s, comm = prev, prevComm // unchanged phase: kept outright
		case ri.session:
			s, comm, err = replaySessionPhase(at, st, topo, sched, prev, prevComm, ph)
		default:
			at("schedule.compile", func() { s, err = sched.Schedule(topo, reqs) })
			if err == nil {
				at("switchprog.lower", func() { _, err = switchprog.Compile(s) })
			}
		}
		if err != nil {
			return err
		}
		if lb, err := schedule.LowerBound(topo, reqs); err == nil && lb > 0 {
			rs.degreeOverLB = append(rs.degreeOverLB, float64(s.Degree())/float64(lb))
		}
		if ri.session {
			prev, prevComm = s, comm
			var chunk []byte
			at("service.marshal", func() {
				pr := phaseResult(ph.Name, s, comm)
				chunk, err = json.Marshal(service.SessionChunk{Type: service.SessionChunkPhase, Index: i, Result: &pr})
			})
			if err != nil {
				return err
			}
			replies = append(replies, chunk)
			continue
		}
		var out *sim.CompiledResult
		at("sim.predict", func() { out, err = sim.RunCompiled(s, ph.Messages) })
		if err != nil {
			return err
		}
		res.TotalSlots += core.DefaultReconfigCost.Cost(s.Degree()) + out.Time
		res.MaxDegree = max(res.MaxDegree, s.Degree())
		res.Phases = append(res.Phases, phaseResult(ph.Name, s, out.Time))
	}
	if !ri.session {
		res.Reconfigurations = len(prog.Phases)
		var raw, envelope []byte
		at("service.marshal", func() { raw, err = json.Marshal(&res) })
		if err != nil {
			return err
		}
		at("service.envelope", func() {
			envelope, err = json.Marshal(service.Response{Key: key, Cache: service.CacheHit, Result: raw})
		})
		if err != nil {
			return err
		}
		replies = append(replies, envelope)
	}
	at("client.decode", func() {
		for _, r := range replies {
			var c service.SessionChunk
			if err = json.Unmarshal(r, &c); err != nil {
				return
			}
		}
	})
	return err
}

// replaySessionPhase resolves one changed /session phase: the stored
// schedule of its pattern, else a fresh compile written back as base
// material; then, after the first phase, a delta patch of the previous
// schedule and core's keep/patch/recompile choice among them.
func replaySessionPhase(at func(string, func()), st *store.Store, topo network.Topology, sched schedule.Scheduler, prev *schedule.Result, prevComm int, ph core.Phase) (*schedule.Result, int, error) {
	reqs := ph.Requests()
	baseKey := store.BaseKey(reqs, topo.Name(), sched.Name())
	var payload []byte
	var found bool
	at("store.get", func() { payload, found = st.Get(store.KindSchedule, baseKey) })
	var candidate *schedule.Result
	var err error
	if found {
		var dec *store.Decoded
		if dec, err = store.DecodeResult(payload); err == nil {
			candidate, err = dec.Result(topo)
		}
	} else {
		at("schedule.compile", func() { candidate, err = sched.Schedule(topo, reqs) })
		if err == nil {
			at("store.put", func() { err = st.Put(store.KindSchedule, baseKey, store.EncodeResult(candidate)) })
		}
	}
	if err != nil {
		return nil, 0, err
	}
	var patched *schedule.Result
	if prev != nil {
		var ds delta.Stats
		at("delta.recompile", func() { patched, ds, err = delta.Recompile(topo, prev, reqs, delta.Options{}) })
		if err != nil {
			return nil, 0, err
		}
		if !ds.Patched {
			patched = nil
		}
	}
	var ev core.BoundaryEval
	at("core.choose", func() {
		ev, err = core.ChooseFrom(prev, prevComm, ph.Messages, candidate, patched, core.DefaultReconfigCost)
	})
	if err != nil {
		return nil, 0, err
	}
	return ev.Schedule, ev.Comm, nil
}

// replayRecompile is the /recompile path of one phase: fault.Recompile on
// the masked topology (which lowers the schedule), then the optics
// light-trace check on its program.
func replayRecompile(at func(string, func()), topo network.Topology, reqs request.Set, link int) (*schedule.Result, error) {
	set := fault.NewSet()
	set.FailLink(network.LinkID(link))
	masked := fault.NewMasked(topo, set)
	defer network.InvalidateRoutes(masked)
	var res *schedule.Result
	var prog *switchprog.Program
	var err error
	at("fault.recompile", func() { res, prog, err = fault.Recompile(masked, reqs, schedule.Combined{}) })
	if err != nil {
		return nil, err
	}
	at("optics.verify", func() { _, err = optics.NewTracer(prog).VerifySchedule(res.Slot) })
	return res, err
}

// phaseResult renders one compiled phase in the wire shape.
func phaseResult(name string, s *schedule.Result, slots int) service.PhaseResult {
	configs := make([][]service.Pair, len(s.Configs))
	for k, c := range s.Configs {
		configs[k] = make([]service.Pair, len(c))
		for j, q := range c {
			configs[k][j] = service.Pair{int(q.Src), int(q.Dst)}
		}
	}
	return service.PhaseResult{Name: name, Algorithm: s.Algorithm, Degree: s.Degree(), PredictedSlots: slots, Configs: configs}
}
