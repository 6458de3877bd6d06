package schedule

import (
	"runtime"
	"sync"

	"repro/internal/network"
	"repro/internal/request"
)

// Combined runs both the coloring and the ordered-AAPC schedulers and keeps
// whichever produces the smaller multiplexing degree. The paper's compiler
// uses this algorithm in the simulation study: compiled communication can
// afford to spend extra compile time for better runtime network utilization.
//
// By default the two member schedulers run concurrently, racing on separate
// goroutines; they are pure functions of (topology, requests), so the only
// shared state is the concurrency-safe route and decomposition caches. The
// result is bit-identical to the sequential execution: the same schedules
// are computed either way, and the winner is chosen by the same
// deterministic rule — coloring wins ties, ordered AAPC must be strictly
// better to be selected. Errors are equally deterministic: a coloring error
// is reported first, exactly as in sequential order, regardless of which
// goroutine failed first in wall-clock time. On a single-core runtime
// (GOMAXPROCS=1) the race is pure overhead, so the members run sequentially
// there.
type Combined struct {
	coloring Coloring
	aapc     OrderedAAPC
}

// Name implements Scheduler.
func (Combined) Name() string { return "combined" }

// Precomputed winner names keep the steady-state compile path free of
// string concatenation.
const (
	combinedColoringName = "combined(coloring)"
	combinedAAPCName     = "combined(aapc)"
)

// AAPCTerminalCutoff is the largest terminal count at which Combined still
// runs its ordered-AAPC member. The AAPC scheduler needs a one-time
// all-to-all decomposition of the topology — an O(N^2 x phases) first-fit
// packing that takes minutes past a few hundred terminals and hours at a
// few thousand — and its dense-pattern degree bound (~N^3/8 phases on a
// torus) never beats coloring at those scales anyway. Above the cutoff
// Combined is its coloring member alone; OracleCombined applies the same
// rule so the differential suite's byte-identity holds at every size. The
// paper's own workloads (the 8x8 torus, 64 terminals) sit far below the
// cutoff. Exported as a variable for tests and for callers who want the
// full race on mid-sized fabrics regardless of compile time.
var AAPCTerminalCutoff = 256

// Schedule implements Scheduler.
func (c Combined) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	return pooledSchedule(c, t, reqs)
}

func (c Combined) scheduleInto(st *CompileState, t network.Topology, reqs request.Set) (*Result, error) {
	if st.aux == nil {
		st.aux = NewCompileState()
	}
	if network.TerminalCount(t) > AAPCTerminalCutoff {
		col, err := c.coloring.scheduleInto(st, t, reqs)
		if err != nil {
			return nil, err
		}
		col.Algorithm = combinedColoringName
		return col, nil
	}
	var col, ap *Result
	var colErr, apErr error
	if runtime.GOMAXPROCS(0) == 1 {
		col, colErr = c.coloring.scheduleInto(st, t, reqs)
		if colErr != nil {
			return nil, colErr
		}
		ap, apErr = c.aapc.scheduleInto(st.aux, t, reqs)
	} else {
		col, colErr, ap, apErr = c.race(st, t, reqs)
	}
	// Deterministic error order: coloring first, mirroring the sequential
	// control flow.
	if colErr != nil {
		return nil, colErr
	}
	if apErr != nil {
		return nil, apErr
	}
	best, name := col, combinedColoringName
	if ap.Degree() < col.Degree() {
		best, name = ap, combinedAAPCName
	}
	best.Algorithm = name
	return best, nil
}

// race fans the two members out on separate goroutines. It lives outside
// scheduleInto so the closure's captures don't force the sequential path's
// locals onto the heap — the single-core compile stays allocation-free.
func (c Combined) race(st *CompileState, t network.Topology, reqs request.Set) (col *Result, colErr error, ap *Result, apErr error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ap, apErr = c.aapc.scheduleInto(st.aux, t, reqs)
	}()
	col, colErr = c.coloring.scheduleInto(st, t, reqs)
	wg.Wait()
	return
}
