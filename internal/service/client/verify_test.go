package client_test

import (
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/trace"
)

// fallbackResult is a /compile reply whose one phase is served by the
// predetermined fallback set, holding the given configurations.
func fallbackResult(configs [][]service.Pair) *service.Result {
	return &service.Result{
		Program:  "gather",
		PEs:      64,
		Topology: "torus-8x8",
		Phases: []service.PhaseResult{{
			Name:      "irregular gather",
			Dynamic:   true,
			Fallback:  true,
			Algorithm: "aapc-fallback",
			Degree:    len(configs),
			Configs:   configs,
		}},
	}
}

// A fallback phase covers its requests but must still be conflict-free:
// 0->2 and 1->2 share the torus link 1->2, so they cannot share a slot.
func TestVerifyRejectsConflictingFallbackPhase(t *testing.T) {
	doc := trace.Document{Name: "gather", PEs: 64, Phases: []trace.Phase{{
		Name:     "irregular gather",
		Dynamic:  true,
		Messages: []trace.Message{{Src: 0, Dst: 2, Flits: 1}, {Src: 1, Dst: 2, Flits: 1}},
	}}}
	apart := fallbackResult([][]service.Pair{{{0, 2}}, {{1, 2}}})
	if err := client.Verify(doc, apart); err != nil {
		t.Fatalf("conflict-free fallback phase rejected: %v", err)
	}
	shared := fallbackResult([][]service.Pair{{{0, 2}, {1, 2}}})
	err := client.Verify(doc, shared)
	if err == nil {
		t.Fatal("fallback phase with two conflicting circuits in one slot accepted")
	}
	if !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("error %q does not name the conflict", err)
	}
}
