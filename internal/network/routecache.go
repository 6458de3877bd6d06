package network

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Route caching.
//
// Routing in compiled communication is a pure function of the topology: the
// paper fixes every circuit's path at compile time, so Route(src, dst) always
// returns the same path for the same topology value. The schedulers exploit
// neither purity nor repetition — the combined algorithm routes every request
// twice (once per member scheduler), and the Table 1–3 sweeps route the same
// (src, dst) pairs hundreds of times on one torus. The cache below memoizes
// paths per topology so repeated scheduling runs, the parallel combined
// fan-out, and batch compilation all share one route computation per pair.
//
// Semantics:
//
//   - Keyed by topology identity (the interface value, i.e. pointer identity
//     for the pointer-shaped topologies of internal/topology) plus (src, dst).
//     Two distinct *Torus values never share entries, even with equal
//     dimensions, so mutating one topology cannot poison another's cache.
//   - Cached paths are shared, not copied. Callers must treat Path.Links as
//     immutable (every caller in this repository already does; routes are
//     compiler artifacts, not scratch buffers).
//   - Mutable topologies: a topology whose routing inputs change after first
//     use (e.g. assigning Torus.Tie) must call InvalidateRoutes(t) afterwards.
//     Mutating before the first Route call is always safe.
//   - Concurrency-safe: lookups take a read lock per topology; misses take the
//     write lock once. Safe for the parallel Combined fan-out and CompileAll.
//   - Bounded: at most maxCachedTopologies topologies are tracked; inserting
//     one more drops the whole cache (coarse, but keeps long-running sweeps
//     over throwaway topology values from accumulating dead entries).
//
// Routing errors (self-loops, out-of-range nodes) are never cached; they are
// returned directly from the topology.

// maxCachedTopologies bounds the number of distinct topology values with live
// cache entries before the cache resets.
const maxCachedTopologies = 64

// topoRoutes is the per-topology route table.
type topoRoutes struct {
	mu sync.RWMutex
	m  map[[2]NodeID]Path
}

var (
	routeCaches     sync.Map // Topology -> *topoRoutes
	routeCacheCount atomic.Int64
)

// InvalidateRoutes drops every cached route of one topology. Call it after
// mutating a topology value that has already been routed on (for example,
// changing a torus's tie policy between runs).
func InvalidateRoutes(t Topology) {
	if t == nil || !cacheableTopology(t) {
		return
	}
	if _, loaded := routeCaches.LoadAndDelete(t); loaded {
		routeCacheCount.Add(-1)
	}
}

// RouteCacheStats reports the number of cached topologies and total cached
// paths; exposed for tests and capacity monitoring.
func RouteCacheStats() (topologies, paths int) {
	routeCaches.Range(func(_, v any) bool {
		tr := v.(*topoRoutes)
		tr.mu.RLock()
		paths += len(tr.m)
		tr.mu.RUnlock()
		topologies++
		return true
	})
	return topologies, paths
}

// clearRouteCaches drops everything.
func clearRouteCaches() {
	routeCaches.Range(func(k, _ any) bool {
		routeCaches.Delete(k)
		return true
	})
	routeCacheCount.Store(0)
}

// cacheableTopology reports whether the topology's dynamic type can be a map
// key. Every topology in internal/topology is a pointer and qualifies; an
// exotic non-comparable implementation silently bypasses the cache.
func cacheableTopology(t Topology) bool {
	return reflect.TypeOf(t).Comparable()
}

// cacheFor returns (creating if needed) the route table of a topology.
func cacheFor(t Topology) *topoRoutes {
	if v, ok := routeCaches.Load(t); ok {
		return v.(*topoRoutes)
	}
	tr := &topoRoutes{m: make(map[[2]NodeID]Path)}
	if v, loaded := routeCaches.LoadOrStore(t, tr); loaded {
		return v.(*topoRoutes)
	}
	if routeCacheCount.Add(1) > maxCachedTopologies {
		// Too many live topologies (typically throwaway values in a sweep):
		// reset rather than grow without bound. The new table dies with the
		// reset too; the next miss recreates it.
		clearRouteCaches()
	}
	return tr
}

// CachedRoute is Route with memoization: it returns the topology's
// deterministic path for (src, dst), computing it at most once per topology
// value while the cache holds. The returned Path shares its Links slice with
// every other caller and must not be mutated.
func CachedRoute(t Topology, src, dst NodeID) (Path, error) {
	if !cacheableTopology(t) {
		return t.Route(src, dst)
	}
	tr := cacheFor(t)
	key := [2]NodeID{src, dst}
	tr.mu.RLock()
	p, ok := tr.m[key]
	tr.mu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := t.Route(src, dst)
	if err != nil {
		return Path{}, err
	}
	tr.mu.Lock()
	// Another goroutine may have raced the same miss; either wrote the same
	// deterministic path, so last-write-wins is fine.
	tr.m[key] = p
	tr.mu.Unlock()
	return p, nil
}
