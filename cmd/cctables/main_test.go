package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/topology"
)

// TestTablesMatchGolden renders the deterministic tables through an
// io.Writer and compares them byte-for-byte with the committed goldens:
// Table 3 as cctables always printed it, and Table 5 as the standalone
// Table 5 command printed it with its defaults before it was folded in.
func TestTablesMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		render func(io.Writer, *topology.Torus) error
	}{
		{"table3.golden", table3},
		{"table5.golden", table5},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tc.render(&got, topology.NewTorus(8, 8)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("output differs from %s:\ngot:\n%s\nwant:\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}
