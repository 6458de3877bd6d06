package topology_test

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

func TestParseRoundTrip(t *testing.T) {
	for _, name := range []string{
		"torus-8x8", "mesh-4x4", "torus3d-4x4x4", "ring-16", "linear-8",
		"hypercube-6", "omega-64", "dragonfly-4x4x1", "dragonfly-8x16x4",
		"fattree-4", "fattree-8",
	} {
		topo, err := topology.Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if topo.Name() != name {
			t.Fatalf("Parse(%q).Name() = %q", name, topo.Name())
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, name := range []string{
		"", "torus", "torus-", "torus-8", "torus-8x8x8", "torus-1x8",
		"mesh-8", "ring-2", "linear-1", "hypercube-0", "hypercube-21",
		"omega-6", "omega-2", "klein-8", "torus-axb", "torus-8x-1",
		"dragonfly-8x8", "dragonfly-0x4x1", "dragonfly-2x8x2",
		"dragonfly:2,8", "dragonfly:axgxh", "dragonfly-256x256x256",
		"fattree-3", "fattree-5", "fattree-66", "fattree:2", "fattree:8x8",
	} {
		if _, err := topology.Parse(name); err == nil {
			t.Fatalf("Parse(%q) accepted", name)
		}
	}
}

// TestParseColonSpec verifies the dragonfly:a,g,h / fattree:k spec form
// constructs the identical topology as the canonical Name() form.
func TestParseColonSpec(t *testing.T) {
	cases := map[string]string{
		"dragonfly:4,4,1":  "dragonfly-4x4x1",
		"dragonfly:8,16,4": "dragonfly-8x16x4",
		"fattree:4":        "fattree-4",
		"fattree:16":       "fattree-16",
	}
	for spec, want := range cases {
		topo, err := topology.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if topo.Name() != want {
			t.Fatalf("Parse(%q).Name() = %q, want %q", spec, topo.Name(), want)
		}
	}
}

// TestSharedInternsByName: one value per name, errors as Parse gives them,
// and past the bound fresh values rather than evictions.
func TestSharedInternsByName(t *testing.T) {
	a, err := topology.Shared("torus-6x6")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := topology.Shared("torus-6x6"); b != a {
		t.Fatal("same name returned two values")
	}
	if _, err := topology.Shared("klein-8"); err == nil {
		t.Fatal("bad name accepted")
	}
	for n := 3; n < 40; n++ {
		name := fmt.Sprintf("ring-%d", n)
		x, err := topology.Shared(name)
		if err != nil {
			t.Fatal(err)
		}
		if x.Name() != name {
			t.Fatalf("%s parsed as %s", name, x.Name())
		}
	}
	if b, _ := topology.Shared("torus-6x6"); b != a {
		t.Fatal("an interned value was evicted")
	}
}
