package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// accepts reports whether the scanner takes data as one value of the
// subset, with any keys.
func accepts(data []byte) bool {
	s := NewScanner(data)
	s.Raw()
	return s.End()
}

func TestRawSubset(t *testing.T) {
	accept := []string{
		`{}`, `[]`, `0`, `-7`, `true`, `false`, `"é"`,
		` {"a":[1,[2,{"b":"c"}]],"a":true} ` + "\n",
		`123456789012345678`,
	}
	refuse := []string{
		``, `null`, `"\n"`, `"\u0041"`, "\"\xff\"", "\"\x01\"", `1.5`, `1e2`, `01`, `-`,
		`1234567890123456789`, `{"a":1,}`, `[1,]`, `{"a" 1}`, `{1:2}`, `[1] [2]`, `tru`,
		strings.Repeat("[", maxDepth+2) + strings.Repeat("]", maxDepth+2),
	}
	for _, in := range accept {
		if !accepts([]byte(in)) {
			t.Errorf("refused %q", in)
		}
		if !json.Valid([]byte(in)) {
			t.Errorf("accepted %q, which encoding/json rejects", in)
		}
	}
	for _, in := range refuse {
		if accepts([]byte(in)) {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestObjectFields(t *testing.T) {
	fields := []string{"src", "dst"}
	decode := func(in string) (src, dst int, ok bool) {
		s := NewScanner([]byte(in))
		s.Object(fields, func(f int) {
			if f == 0 {
				src = s.Int()
			} else {
				dst = s.Int()
			}
		})
		return src, dst, s.End()
	}
	if src, dst, ok := decode(`{"dst":2,"src":1}`); !ok || src != 1 || dst != 2 {
		t.Fatalf("got %d %d %v", src, dst, ok)
	}
	for _, in := range []string{`{"src":1,"src":2}`, `{"Src":1}`, `{"ſrc":1}`, `{"src":1,"x":2}`, `{"src":null}`} {
		if _, _, ok := decode(in); ok {
			t.Errorf("accepted %s", in)
		}
	}
}

func TestRawIsExactValueBytes(t *testing.T) {
	s := NewScanner([]byte(` { "a" : [ 1 ] } `))
	if raw := s.Raw(); string(raw) != `{ "a" : [ 1 ] }` || !s.End() {
		t.Fatalf("raw %q", raw)
	}
}

func TestReadBody(t *testing.T) {
	body := []byte(`{"pes":64}`)
	for _, size := range []int64{-1, 0, int64(len(body)), 1 << 40} {
		got, err := ReadBody(iotest.OneByteReader(bytes.NewReader(body)), size, 1<<20)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: %q, %v", size, got, err)
		}
	}
	if _, err := ReadBody(bytes.NewReader(body), int64(len(body))+1, 1<<20); err != io.ErrUnexpectedEOF {
		t.Fatalf("short body: %v", err)
	}
}

// TestReadBodyGrowsPastPreallocation: a body larger than maxPrealloc is
// read whole.
func TestReadBodyGrowsPastPreallocation(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 3*maxPrealloc+5)
	got, err := ReadBody(bytes.NewReader(body), int64(len(body)), 1<<30)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read %d of %d bytes, %v", len(got), len(body), err)
	}
}
