package sim

import (
	"sort"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
)

// This file is the simulator-level accounting path for overlap-aware
// reconfiguration. Between two compiled phases the switches must rewrite
// the shift-register entries that differ; each switch owns its register
// write port, so switches load in parallel while the entries of one switch
// load serially (one entry per ReconfigCost.PerSlot slots). A switch that
// sits idle in some TDM slots of the *current* phase can absorb register
// writes during those slots, so the next phase only stalls for the largest
// per-switch remainder that could not be hidden, plus the epoch barrier.

// Request returns the message's connection request — the (src, dst) pair a
// compiled schedule must hold a circuit for.
func (m Message) Request() request.Request {
	return request.Request{Src: network.NodeID(m.Src), Dst: network.NodeID(m.Dst)}
}

// PhaseLoad describes the register writes needed to move the network into a
// phase: per-switch entry counts plus their total and maximum.
type PhaseLoad struct {
	// PerSwitch holds, indexed by switch (node) id, the number of register
	// entries that switch must write. Nil when no writes are needed.
	PerSwitch []int
	// Total is the sum over all switches.
	Total int
	// Max is the largest per-switch count; serialized loading stalls for
	// Max*PerSlot + Barrier because switches write in parallel.
	Max int
}

// pathSwitches calls visit for every switch traversed by the circuit of r:
// the source switch plus the destination switch of every link on the
// deterministic route.
func pathSwitches(topo network.Topology, r request.Request, visit func(network.NodeID)) error {
	p, err := network.CachedRoute(topo, r.Src, r.Dst)
	if err != nil {
		return err
	}
	visit(p.Src)
	for _, l := range p.Links {
		visit(topo.Link(l).To)
	}
	return nil
}

// RegisterLoad is the cold-start load of a schedule: every switch traversed
// by any of its circuits writes its full K-entry register. With no previous
// phase to hide behind this costs Max*PerSlot + Barrier, matching
// core.ReconfigCost.Cost(K).
func RegisterLoad(res *schedule.Result) (PhaseLoad, error) {
	k := res.Degree()
	if k == 0 {
		return PhaseLoad{}, nil
	}
	per := make([]int, res.Topology.NumNodes())
	for _, cfg := range res.Configs {
		for _, r := range cfg {
			if err := pathSwitches(res.Topology, r, func(s network.NodeID) {
				per[s] = k
			}); err != nil {
				return PhaseLoad{}, err
			}
		}
	}
	return tallyLoad(per), nil
}

func tallyLoad(per []int) PhaseLoad {
	l := PhaseLoad{PerSwitch: per}
	for _, n := range per {
		l.Total += n
		if n > l.Max {
			l.Max = n
		}
	}
	if l.Total == 0 {
		l.PerSwitch = nil
	}
	return l
}

// slotKey identifies one register entry position: switch s, TDM slot u.
func slotKey(s network.NodeID, k int, u int) int64 { return int64(s)*int64(k) + int64(u) }

// circuitSets builds the canonical per-(switch, slot) circuit sets of a
// schedule: which circuits cross each switch in each TDM slot. Two equal
// sets imply byte-identical crossbar register entries because routing is
// deterministic.
func circuitSets(res *schedule.Result) (map[int64]request.Set, error) {
	k := res.Degree()
	sets := make(map[int64]request.Set)
	for u, cfg := range res.Configs {
		for _, r := range cfg {
			if err := pathSwitches(res.Topology, r, func(s network.NodeID) {
				sets[slotKey(s, k, u)] = append(sets[slotKey(s, k, u)], r)
			}); err != nil {
				return nil, err
			}
		}
	}
	for key, set := range sets {
		sort.Slice(set, func(i, j int) bool {
			if set[i].Src != set[j].Src {
				return set[i].Src < set[j].Src
			}
			return set[i].Dst < set[j].Dst
		})
		sets[key] = set
	}
	return sets, nil
}

func sameSet(a, b request.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RegisterDelta is the load needed to move from schedule prev to schedule
// next: for every switch, the number of TDM slots whose crossing-circuit set
// changed. A degree change rewrites the whole register of every switch next
// uses (the frame length is a global property), so the delta degrades to
// RegisterLoad(next). Entries that next leaves dark need no clearing: light
// only enters the network through PE injection ports, and the PEs transmit
// only on next's circuits, so stale entries on otherwise-dark paths never
// see a photon.
//
// prev == nil means cold start and yields RegisterLoad(next).
func RegisterDelta(prev, next *schedule.Result) (PhaseLoad, error) {
	if prev == nil || prev.Degree() != next.Degree() {
		return RegisterLoad(next)
	}
	if prev == next {
		return PhaseLoad{}, nil
	}
	k := next.Degree()
	prevSets, err := circuitSets(prev)
	if err != nil {
		return PhaseLoad{}, err
	}
	nextSets, err := circuitSets(next)
	if err != nil {
		return PhaseLoad{}, err
	}
	per := make([]int, next.Topology.NumNodes())
	for key, set := range nextSets {
		if !sameSet(set, prevSets[key]) {
			per[key/int64(k)]++
		}
	}
	return tallyLoad(per), nil
}

// idlePerSwitch counts, for every switch, the TDM slots of res's frame in
// which the switch carries no circuit — the slots whose dark register
// entries can be rewritten while the phase is still communicating.
func idlePerSwitch(res *schedule.Result) ([]int, error) {
	k := res.Degree()
	busy := make([]int, res.Topology.NumNodes())
	seen := make([]int, res.Topology.NumNodes())
	for i := range seen {
		seen[i] = -1
	}
	for u, cfg := range res.Configs {
		for _, r := range cfg {
			if err := pathSwitches(res.Topology, r, func(s network.NodeID) {
				if seen[s] != u {
					seen[s] = u
					busy[s]++
				}
			}); err != nil {
				return nil, err
			}
		}
	}
	idle := busy
	for s := range idle {
		idle[s] = k - idle[s]
	}
	return idle, nil
}

// SerializedStall is the stall of loading a phase with nothing to hide
// behind: Max entries back to back plus the barrier. Zero when no switch
// writes anything.
func SerializedStall(load PhaseLoad, perSlot, barrier int) int {
	if load.Max == 0 {
		return 0
	}
	return perSlot*load.Max + barrier
}

// OverlapStall charges a phase boundary overlap-aware: while the previous
// phase communicates for prevComm slots, switch s is idle in idle_s of every
// K-slot frame and can absorb prevComm*idle_s/K register-write slots. The
// phase then stalls only for the largest per-switch remainder plus the
// barrier (switches write in parallel). With prev == nil (cold start) or
// nothing to write the stall degrades to SerializedStall. The second result
// is the number of stall slots hidden relative to serialized loading.
func OverlapStall(prev *schedule.Result, prevComm int, load PhaseLoad, perSlot, barrier int) (stall, hidden int, err error) {
	serialized := SerializedStall(load, perSlot, barrier)
	if load.Max == 0 {
		return 0, 0, nil
	}
	if prev == nil || prevComm <= 0 {
		return serialized, 0, nil
	}
	k := prev.Degree()
	if k == 0 {
		return serialized, 0, nil
	}
	idle, err := idlePerSwitch(prev)
	if err != nil {
		return 0, 0, err
	}
	worst := 0
	for s, entries := range load.PerSwitch {
		if entries == 0 {
			continue
		}
		capacity := 0
		if s < len(idle) {
			capacity = prevComm * idle[s] / k
		}
		rem := perSlot*entries - capacity
		if rem > worst {
			worst = rem
		}
	}
	stall = worst + barrier
	return stall, serialized - stall, nil
}
