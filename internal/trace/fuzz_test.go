package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var readSeeds = []string{
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"x","pes":64,"phases":[{"name":"ph","dynamic":true,"messages":[{"src":5,"dst":9,"flits":1,"start":3}]}]}`,
	`{"pes":2,"phases":[]}`,
	`{"name":"bad","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":0,"flits":1}]}]}`,
	`{"name":"neg","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":-1}]}]}`,
	`{`,
	``,
	`null`,
	`{"name":"u","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}],"extra":1}`,
}

// FuzzRead feeds arbitrary bytes through the trace reader. Invariants:
// Read never panics, a document it accepts always passes Validate, converts
// to a core.Program, and survives a Write/Read round trip unchanged (the
// interchange format is self-consistent, not merely parseable).
func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := doc.Validate(); verr != nil {
			t.Fatalf("Read accepted a document Validate rejects: %v", verr)
		}
		if _, perr := doc.Program(); perr != nil {
			t.Fatalf("accepted document does not convert to a program: %v", perr)
		}
		var buf strings.Builder
		if werr := Write(&buf, doc); werr != nil {
			t.Fatalf("accepted document does not re-encode: %v", werr)
		}
		again, rerr := Read(strings.NewReader(buf.String()))
		if rerr != nil {
			t.Fatalf("round-tripped document rejected: %v\n%s", rerr, buf.String())
		}
		if !reflect.DeepEqual(doc, again) {
			t.Fatalf("round trip changed the document:\n%#v\n%#v", doc, again)
		}
	})
}

// decodeSeeds are inputs at the edges of the fast path's subset: each must
// be refused by the scanner or decode exactly as encoding/json does.
var decodeSeeds = []string{
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	` {"name":"p","pes":4,"phases":[{"name":"a","messages":[]}]} ` + "\n",
	`{"name":"p","pes":4,"phases":[]}`,
	`{"name":"p","pes":4}`,
	`{"name":"p","PES":4,"phases":[{"name":"a","messages":[{"SRC":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"ſrc":0,"dst":1,"flits":2}]}]}`,
	"{\"name\":\"p\",\"pes\":4,\"phases\":[{\"name\":\"a\",\"messages\":[{\"src\":0,\"dst\":1,\"flits\":2,\"\u212aey\":1}]}]}",
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2,"start":1,"\u0073tart":2}]}]}`,
	`{"name":"\u0070","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","name":"q","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":null,"pes":4,"phases":[{"name":"a","messages":null}]}`,
	`{"name":"p","pes":1e2,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":1.0}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":-0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":01,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":12345678901234567890}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":123456789012345678}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]} x`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}{}`,
	"{\"name\":\"p\xff\",\"pes\":4,\"phases\":[{\"name\":\"a\",\"messages\":[{\"src\":0,\"dst\":1,\"flits\":2}]}]}",
	`{"name":"p","pes":4,"phases":[{"name":"a","dynamic":true,"messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","dynamic":tru,"messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2},]}]}`,
}

// corpusSeeds returns the committed corpus of a fuzz target.
func corpusSeeds(f *testing.F, target string) [][]byte {
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if quoted, ok := strings.CutPrefix(line, "[]byte("); ok {
				v, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					f.Fatalf("%s: %v", e.Name(), err)
				}
				out = append(out, []byte(v))
			}
		}
	}
	return out
}

// FuzzDecodeDifferential checks the one invariant of the fast path: a
// document the scanner accepts is accepted by encoding/json too, with a
// reflect.DeepEqual value.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range append(readSeeds, decodeSeeds...) {
		f.Add([]byte(seed))
	}
	for _, seed := range corpusSeeds(f, "FuzzRead") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := decodeFast(data)
		if !ok {
			return
		}
		var want Document
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v):\n%q", err, data)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast path and encoding/json disagree on %q:\n%#v\n%#v", data, fast, want)
		}
	})
}

// TestDecodeFastPathAcceptsWrittenDocuments: everything this repository
// writes — Write's indented files and the compact encoding clients send —
// is inside the scanner's subset and decodes exactly as encoding/json does.
func TestDecodeFastPathAcceptsWrittenDocuments(t *testing.T) {
	p3m, err := os.ReadFile("../../examples/traces/p3m64.json")
	if err != nil {
		t.Fatal(err)
	}
	doc := Document{Name: "d", PEs: 8, Phases: []Phase{
		{Name: "a", Messages: []Message{{Src: 0, Dst: 7, Flits: 3, Start: 2}, {Src: 7, Dst: 0, Flits: 1}}},
		{Name: "ü", Dynamic: true, Messages: []Message{{Src: 1, Dst: 2, Flits: 1}}},
	}}
	var indented, compact bytes.Buffer
	if err := Write(&indented, doc); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&compact).Encode(doc); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"p3m64.json": p3m, "indented": indented.Bytes(), "compact": compact.Bytes()} {
		fast, ok := decodeFast(data)
		if !ok {
			t.Fatalf("%s: scanner refused a document this repository writes", name)
		}
		var want Document
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%s: fast decode differs from encoding/json", name)
		}
	}
}

// TestDecodeAllocs pins the allocations of decoding the P3M-64 trace: one
// per string and the growth of each slice, nothing per message.
func TestDecodeAllocs(t *testing.T) {
	data, err := os.ReadFile("../../examples/traces/p3m64.json")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	const want = 84
	if allocs > want {
		t.Fatalf("Decode(p3m64.json) made %.0f allocations, want at most %d", allocs, want)
	}
}
