package service

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/optics"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/store"
	"repro/internal/switchprog"
)

// This file is the service's persistence and incremental-recompilation
// layer: the glue between the in-memory LRU, the on-disk schedule store
// (internal/store) and the delta recompiler (internal/delta).
//
//   - whole-program JSON artifacts are written through to the store under
//     their program key, read back on LRU misses ("store" cache state) and
//     preloaded into the LRU at boot, so a restarted daemon serves
//     byte-identical hits with zero pipeline invocations;
//   - per-phase schedules are written under store.BaseKey as delta base
//     material; resolvePhase — behind /compile, /recompile and /session —
//     reuses an exact base verbatim or patches the nearest one, and on a
//     fault mask rebases a healthy base onto the masked view instead of
//     running fault.Recompile from scratch, keeping the same switch-program
//     lowering and light-trace verification.

// maxBaseCandidates bounds the per-topology candidate list of the
// nearest-base index. Diffing a target against every candidate is linear in
// pattern size, so the list stays small; the exact-key path does not go
// through it and is unbounded.
const maxBaseCandidates = 32

// maxMaskedViews bounds the masked-view cache: a real fault persists across
// many recompile requests, so the daemon keeps the handful of fault masks
// it is actively serving (with their warm route caches) instead of building
// a cold view per request. Evicted views release their route-cache entry,
// so the process-wide cache cannot churn without bound.
const maxMaskedViews = 8

// maskedViewCache caches fault-masked topology views keyed by topology name
// plus the canonical fault-set string.
type maskedViewCache struct {
	mu sync.Mutex
	m  map[string]*fault.Masked
}

// view returns the shared masked view for (topoName, faults), building and
// caching it on first use. Views are read-only after construction, so
// concurrent requests with the same mask share one view and one route-cache
// table.
func (c *maskedViewCache) view(topoName string, topo network.Topology, faults *fault.Set) *fault.Masked {
	key := topoName + "|" + faults.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.m[key]; ok {
		return m
	}
	if c.m == nil {
		c.m = make(map[string]*fault.Masked, maxMaskedViews)
	}
	for len(c.m) >= maxMaskedViews { // rare: more live masks than the cap
		for k, victim := range c.m {
			network.InvalidateRoutes(victim)
			delete(c.m, k)
			break
		}
	}
	m := fault.NewMasked(topo, faults)
	c.m[key] = m
	return m
}

type baseCandidate struct {
	key  string
	reqs request.Set
	// res caches the decoded schedule so the delta path patches from memory
	// instead of re-reading, re-decoding and re-validating the store entry
	// on every request. nil until first decoded (warm boot registers
	// patterns only); bounded by maxBaseCandidates like everything else in
	// the index. Cached results are shared read-only.
	res *schedule.Result
	// checked records whether res passed the exact-multiset validation the
	// exact-key path demands; nearest-base material is cached unchecked and
	// validated once if an exact hit ever needs it.
	checked bool
}

// baseIndex is the small in-memory candidate index over the store's base
// schedules: per topology, the most recently saved patterns with their
// store keys and decoded schedules, so nearest-base selection never scans
// the disk and steady-state patching never touches it at all.
type baseIndex struct {
	mu   sync.Mutex
	topo map[string][]baseCandidate
}

func newBaseIndex() *baseIndex { return &baseIndex{topo: make(map[string][]baseCandidate)} }

func (b *baseIndex) add(topoName, key string, reqs request.Set, res *schedule.Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	list := b.topo[topoName]
	for i := range list {
		if list[i].key == key {
			list[i].reqs = reqs
			if res != nil {
				list[i].res, list[i].checked = res, true
			}
			return
		}
	}
	list = append(list, baseCandidate{key: key, reqs: reqs, res: res, checked: res != nil})
	if len(list) > maxBaseCandidates {
		list = list[len(list)-maxBaseCandidates:]
	}
	b.topo[topoName] = list
}

// cached returns the decoded schedule for a key, if the index holds one,
// and whether it has passed exact-multiset validation.
func (b *baseIndex) cached(topoName, key string) (*schedule.Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.topo[topoName] {
		if c.key == key {
			return c.res, c.checked
		}
	}
	return nil, false
}

// fill attaches a freshly decoded schedule to an already registered key; a
// key no longer in the index (trimmed since) is ignored.
func (b *baseIndex) fill(topoName, key string, res *schedule.Result, checked bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	list := b.topo[topoName]
	for i := range list {
		if list[i].key == key {
			list[i].res = res
			list[i].checked = list[i].checked || checked
			return
		}
	}
}

// nearest returns the store key of the candidate whose pattern has the
// smallest multiset diff against target (earliest-saved wins ties, so the
// choice is deterministic), skipping exclude. A base farther than half the
// target's size is no base at all — patching it would rewrite most of the
// schedule — so none is returned.
func (b *baseIndex) nearest(topoName string, target request.Set, exclude string) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bestKey, bestSize := "", -1
	for _, c := range b.topo[topoName] {
		if c.key == exclude {
			continue
		}
		if d := delta.Compute(c.reqs, target).Size(); bestSize < 0 || d < bestSize {
			bestKey, bestSize = c.key, d
		}
	}
	if bestSize < 0 || bestSize*2 > len(target) {
		return "", false
	}
	return bestKey, true
}

// storeGetArtifactOwned reads a whole-program artifact back from the store,
// with the entry's owner tag ("" is the default tenant).
func (s *Server) storeGetArtifactOwned(key string) (json.RawMessage, string, bool) {
	if s.store == nil {
		return nil, "", false
	}
	payload, owner, ok := s.store.GetOwned(store.KindArtifact, key)
	if !ok {
		return nil, "", false
	}
	return json.RawMessage(payload), owner, true
}

// storePutArtifact writes a freshly compiled artifact through to the
// store, billed to the tenant, then enforces the tenant's store quota —
// evicting only the tenant's own oldest entries when it runs over.
// Persistence is best-effort: a full disk degrades the daemon to
// memory-only caching, it never fails a compile that already succeeded.
func (s *Server) storePutArtifact(key, tenant string, raw json.RawMessage) {
	if s.store == nil {
		return
	}
	owner := ownerOfTenant(tenant)
	if s.store.PutOwned(store.KindArtifact, key, raw, owner) == nil {
		s.enforceStoreQuota(tenant, owner)
	}
}

// enforceStoreQuota applies one tenant's configured store bounds.
func (s *Server) enforceStoreQuota(tenant, owner string) {
	c := s.qos.ClassOf(tenant)
	if c.StoreEntries > 0 || c.StoreBytes > 0 {
		_, _ = s.store.QuotaGC(owner, c.StoreEntries, c.StoreBytes)
	}
}

// writeEvicted is the LRU's eviction callback: an artifact falling out of
// memory is written through to the store if it is not already there —
// billed to the evicting partition's tenant — so it stays one disk read
// away. This is the safety net behind the compile-time write-through — it
// only pays a disk write when that write failed or the entry was GCed
// since.
func (s *Server) writeEvicted(key, tenant string, val json.RawMessage) {
	if s.store == nil || s.store.Has(store.KindArtifact, key) {
		return
	}
	owner := ownerOfTenant(tenant)
	if s.store.PutOwned(store.KindArtifact, key, val, owner) == nil {
		s.metrics.observeEvictionWrite()
		s.enforceStoreQuota(tenant, owner)
	}
}

// warmBoot preloads the store into memory: the newest artifacts fill the
// LRU (so a restarted daemon answers previously compiled programs as plain
// cache hits), and every stored base schedule registers in the nearest-base
// index. Corrupt entries quarantine inside Get and are simply skipped —
// warm boot never fails.
func (s *Server) warmBoot(cacheEntries int) {
	if s.store == nil {
		return
	}
	arts := s.store.Entries(store.KindArtifact)
	if len(arts) > cacheEntries {
		arts = arts[len(arts)-cacheEntries:]
	}
	loaded := 0
	for _, info := range arts {
		if payload, owner, ok := s.store.GetOwned(store.KindArtifact, info.Key); ok {
			s.cache.Add(info.Key, s.tenantOfOwner(owner), json.RawMessage(payload))
			loaded++
		}
	}
	s.metrics.observeWarmBoot(loaded)
	for _, info := range s.store.Entries(store.KindSchedule) {
		payload, ok := s.store.Get(store.KindSchedule, info.Key)
		if !ok {
			continue
		}
		dec, err := store.DecodeResult(payload)
		if err != nil {
			continue
		}
		s.bases.add(dec.Topology, info.Key, dec.Requests(), nil)
	}
}

// loadBase fetches a stored base schedule bound to topo, preferring the
// index's in-memory decoded copy and falling back to a store read. When
// reqs is non-nil the decoded schedule must serve exactly that multiset —
// the guard against codec drift and key collisions (already-cached
// schedules passed that guard when they were cached, or were produced by
// this process). Any failure is a miss, never an error: the caller falls
// back to compiling.
func (s *Server) loadBase(key string, topo network.Topology, reqs request.Set) *schedule.Result {
	if res, checked := s.bases.cached(topo.Name(), key); res != nil {
		if reqs == nil || checked {
			return res
		}
		// Cached off the nearest-base path, now needed for an exact hit:
		// run the multiset guard it skipped, once.
		if res.Validate(reqs) != nil {
			return nil
		}
		s.bases.fill(topo.Name(), key, res, true)
		return res
	}
	payload, ok := s.store.Get(store.KindSchedule, key)
	if !ok {
		return nil
	}
	dec, err := store.DecodeResult(payload)
	if err != nil {
		return nil
	}
	res, err := dec.Result(topo)
	if err != nil {
		return nil
	}
	if reqs != nil && res.Validate(reqs) != nil {
		return nil
	}
	s.bases.fill(topo.Name(), key, res, reqs != nil)
	return res
}

// saveBase persists a phase's schedule as delta base material and registers
// it — pattern and decoded schedule both — in the candidate index.
// Best-effort, like storePutArtifact.
func (s *Server) saveBase(key, topoName string, res *schedule.Result, reqs request.Set) {
	if s.store == nil {
		return
	}
	if s.store.Put(store.KindSchedule, key, store.EncodeResult(res)) == nil {
		s.bases.add(topoName, key, reqs, res)
	}
}

// compileProgram compiles a request's program in one walk over one view:
// the healthy topology, or the shared masked view of the request's fault
// mask (its route-cache table is shared across requests carrying the same
// mask, so a persistent failure is routed once, not once per request).
// Dynamic phases take the predetermined AAPC configuration set computed on
// the view, static phases resolve through resolvePhase, and every phase is
// lowered to its switch program.
func (s *Server) compileProgram(p *parsedRequest) (*core.CompiledProgram, error) {
	var view network.Topology = p.topo
	if p.faults != nil && !p.faults.Empty() {
		view = s.maskedViews.view(p.topoName, p.topo, p.faults)
	}
	out := &core.CompiledProgram{Program: p.prog, Phases: make([]core.CompiledPhase, len(p.prog.Phases))}
	for i, ph := range p.prog.Phases {
		cp := &out.Phases[i]
		*cp = core.CompiledPhase{Phase: ph, UsedFallback: ph.Dynamic}
		var err error
		if ph.Dynamic {
			cp.Schedule, err = core.FallbackSchedule(view)
		} else {
			cp.Schedule, cp.Program, _, err = s.resolvePhase(p, view, ph.Requests())
		}
		if err == nil && cp.Program == nil {
			cp.Program, err = switchprog.Compile(cp.Schedule)
		}
		if err != nil {
			return nil, fmt.Errorf("phase %q: %w", ph.Name, err)
		}
	}
	return out, nil
}

// resolvePhase resolves one static phase's schedule on view — the healthy
// topology or a masked view of it — and reports how: "hit" (the stored
// schedule of exactly this pattern, used verbatim), "patched" (a stored base
// patched by the delta recompiler) or "miss" (full compile). The exact
// stored base comes first, then the nearest one, then delta.Recompile;
// without a store the lookups are skipped and delta.Recompile compiles from
// scratch. A healthy result is saved back as future base material.
//
// On a masked view even an exact base is rebased onto the mask — surviving
// circuits keep their slots, broken ones detour — and the result is lowered
// and light-traced here, so prog is non-nil. A missing base or any failure
// falls back to fault.Recompile, which schedules on the masked view from
// scratch and runs the same checks.
func (s *Server) resolvePhase(p *parsedRequest, view network.Topology, reqs request.Set) (*schedule.Result, *switchprog.Program, string, error) {
	masked, isMasked := view.(*fault.Masked)
	var key string
	var base *schedule.Result
	if s.store != nil {
		key = store.BaseKey(reqs, p.topoName, p.schedName)
		if base = s.loadBase(key, p.topo, reqs); base != nil && !isMasked {
			s.metrics.observeDelta(true, false)
			return base, nil, CacheHit, nil
		}
		if base == nil {
			if candKey, ok := s.bases.nearest(p.topoName, reqs, key); ok {
				base = s.loadBase(candKey, p.topo, nil)
			}
		}
	}
	opts := delta.Options{Bound: s.deltaBound, Scheduler: p.scheduler}
	if !isMasked {
		res, st, err := delta.Recompile(view, base, reqs, opts)
		if err != nil {
			return nil, nil, "", err
		}
		if s.store != nil {
			s.metrics.observeDelta(false, st.Patched)
			s.saveBase(key, p.topoName, res, reqs)
		}
		return res, nil, deltaState(st), nil
	}
	if base != nil {
		res, st, err := delta.Recompile(view, base, reqs, opts)
		var prog *switchprog.Program
		if err == nil {
			prog, err = switchprog.Compile(res)
		}
		if err == nil {
			_, err = optics.NewTracer(prog).VerifySchedule(res.Slot)
		}
		if err == nil {
			s.metrics.observeDelta(false, st.Patched)
			return res, prog, deltaState(st), nil
		}
	}
	res, prog, err := fault.Recompile(masked, reqs, p.scheduler)
	return res, prog, CacheMiss, err
}

// deltaState is the per-phase cache state of a delta.Recompile outcome.
func deltaState(st delta.Stats) string {
	if st.Patched {
		return CachePatched
	}
	return CacheMiss
}
