package core

import (
	"fmt"

	"repro/internal/sim"
)

// ReconfigCost models the cost of switching the network between compiled
// phases. Loading a phase's shift registers costs PerSlot slots per TDM
// slot of the incoming phase (the registers are written sequentially) plus
// a fixed Barrier for the global synchronization that makes the register
// rewrite deterministic (Section 2: "writing onto these registers must be
// synchronized to avoid non-deterministic network states").
type ReconfigCost struct {
	PerSlot int
	Barrier int
}

// DefaultReconfigCost is one slot per register entry plus a 16-slot
// barrier.
var DefaultReconfigCost = ReconfigCost{PerSlot: 1, Barrier: 16}

// Cost returns the slots needed to switch into a phase of the given degree.
func (rc ReconfigCost) Cost(degree int) int {
	return rc.PerSlot*degree + rc.Barrier
}

// IterationTime simulates one full iteration of the compiled program: each
// phase pays its reconfiguration cost (registers + barrier) and then runs
// its messages under compiled communication. It returns the total slots
// and the per-phase breakdown (reconfiguration, communication).
func (cp *CompiledProgram) IterationTime(rc ReconfigCost) (total int, breakdown [][2]int, err error) {
	for i := range cp.Phases {
		ph := &cp.Phases[i]
		out, err := sim.RunCompiled(ph.Schedule, ph.Phase.Messages)
		if err != nil {
			return 0, nil, fmt.Errorf("core: phase %q: %w", ph.Phase.Name, err)
		}
		re := rc.Cost(ph.Degree())
		breakdown = append(breakdown, [2]int{re, out.Time})
		total += re + out.Time
	}
	return total, breakdown, nil
}

// ProgramTime returns the communication time of `iterations` iterations of
// the program's main loop. The first iteration pays every reconfiguration;
// later iterations still reconfigure at each phase boundary (the paper's
// model: within a phase TDM needs no control, between phases the compiled
// code rewrites the registers). A single-phase program therefore
// reconfigures only once in total, which is the paper's best case.
func (cp *CompiledProgram) ProgramTime(iterations int, rc ReconfigCost) (int, error) {
	if iterations < 1 {
		return 0, fmt.Errorf("core: iterations must be positive, got %d", iterations)
	}
	iter, breakdown, err := cp.IterationTime(rc)
	if err != nil {
		return 0, err
	}
	if len(cp.Phases) == 1 {
		// The single configuration set persists across iterations: pay the
		// load once, then only communication.
		comm := breakdown[0][1]
		return breakdown[0][0] + iterations*comm, nil
	}
	return iterations * iter, nil
}
