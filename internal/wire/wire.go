// Package wire is the fast path of the daemon's JSON wire format: a strict
// single-pass scanner over []byte for the compact subset of JSON this
// repository emits — objects, arrays, strings without escapes, integers and
// true/false — and a body reader sized from Content-Length.
//
// The scanner refuses everything outside that subset instead of parsing it,
// and a caller that sees a refusal re-runs encoding/json, which stays the
// authority on what is accepted and on every error message. The one
// invariant: whenever the scanner accepts a document, encoding/json accepts
// it too and decodes a reflect.DeepEqual value. That is why it refuses
// escapes, invalid UTF-8 (encoding/json rewrites it to U+FFFD), null,
// duplicate keys, any key that is not an exact field name (encoding/json
// folds case, including 'ſ' to 's' and the Kelvin sign to 'k'), fractions,
// exponents, leading zeros, integers of more than 18 digits, and anything
// but whitespace after the top-level value.
package wire

import (
	"io"
	"unicode/utf8"
)

// maxDepth bounds the nesting Raw follows; deeper documents are refused
// (encoding/json itself refuses beyond 10000 levels).
const maxDepth = 64

// Scanner reads one JSON document. A failure is sticky: every later call
// returns a zero value, and End reports false.
type Scanner struct {
	data []byte
	pos  int
	bad  bool
}

// NewScanner returns a scanner over data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Fail refuses the document; decoders call it when a value is valid JSON
// but would not decode identically through encoding/json.
func (s *Scanner) Fail() { s.bad = true }

// End reports whether the whole document was accepted: no refusal, and
// nothing but whitespace after the top-level value.
func (s *Scanner) End() bool {
	s.ws()
	return !s.bad && s.pos == len(s.data)
}

func (s *Scanner) ws() {
	data, i := s.data, s.pos
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	s.pos = i
}

// peek skips whitespace and returns the next byte, 0 at the end or after a
// refusal.
func (s *Scanner) peek() byte {
	s.ws()
	if s.bad || s.pos >= len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

func (s *Scanner) expect(c byte) bool {
	if s.peek() != c {
		s.bad = true
		return false
	}
	s.pos++
	return true
}

// list scans the elements of an object or array up to its close byte,
// calling elem for each; elem consumes one element.
func (s *Scanner) list(open, close byte, elem func()) {
	if !s.expect(open) {
		return
	}
	if s.peek() == close {
		s.pos++
		return
	}
	for !s.bad {
		elem()
		switch s.peek() {
		case ',':
			s.pos++
		case close:
			s.pos++
			return
		default:
			s.bad = true
		}
	}
}

// Object scans an object whose keys must be distinct members of fields
// (at most 64, matched byte for byte), calling member with the index of
// each key once the scanner stands at its value; member consumes the value.
func (s *Scanner) Object(fields []string, member func(field int)) {
	var seen uint64
	s.list('{', '}', func() {
		key := s.str()
		f := 0
		for f < len(fields) && string(key) != fields[f] {
			f++
		}
		if f == len(fields) || seen&(1<<f) != 0 || !s.expect(':') {
			s.bad = true
			return
		}
		seen |= 1 << f
		member(f)
	})
}

// Array scans an array, calling elem once per element; elem consumes it.
func (s *Scanner) Array(elem func()) { s.list('[', ']', elem) }

// str scans a string without escapes or control bytes and returns its
// contents, which alias the input.
func (s *Scanner) str() []byte {
	if s.peek() != '"' {
		s.bad = true
		return nil
	}
	start := s.pos + 1
	ascii := true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			b := s.data[start:i]
			if !ascii && !utf8.Valid(b) {
				s.bad = true
				return nil
			}
			s.pos = i + 1
			return b
		case c == '\\' || c < 0x20:
			s.bad = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.bad = true
	return nil
}

// Str scans a string value.
func (s *Scanner) Str() string { return string(s.str()) }

// Int scans an integer of at most 18 digits: no fraction, exponent or
// leading zero.
func (s *Scanner) Int() int {
	s.ws()
	data, i := s.data, s.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
	}
	n := i - start
	if s.bad || n == 0 || n > 18 || (n > 1 && data[start] == '0') ||
		(i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E')) {
		s.bad = true
		return 0
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	s.pos = i
	return int(v)
}

// Bool scans true or false.
func (s *Scanner) Bool() bool {
	switch s.peek() {
	case 't':
		s.literal("true")
		return !s.bad
	case 'f':
		s.literal("false")
		return false
	}
	s.bad = true
	return false
}

func (s *Scanner) literal(lit string) {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		s.bad = true
		return
	}
	s.pos += len(lit)
}

// Raw scans one value of the subset, with any keys, and returns its bytes
// exactly as they appear in the input (aliased, without surrounding
// whitespace) — the bytes encoding/json stores in a json.RawMessage.
func (s *Scanner) Raw() []byte {
	s.ws()
	start := s.pos
	s.skip(0)
	if s.bad {
		return nil
	}
	return s.data[start:s.pos]
}

func (s *Scanner) skip(depth int) {
	if depth > maxDepth {
		s.bad = true
		return
	}
	switch s.peek() {
	case '{':
		s.list('{', '}', func() {
			s.str()
			if s.expect(':') {
				s.skip(depth + 1)
			}
		})
	case '[':
		s.list('[', ']', func() { s.skip(depth + 1) })
	case '"':
		s.str()
	case 't', 'f':
		s.Bool()
	default:
		s.Int()
	}
}

// maxPrealloc caps what ReadBody allocates before the body arrives, so a
// client that declares a large Content-Length and then sends little pins
// little memory. Every trace in examples/traces fits in one allocation.
const maxPrealloc = 4 << 20

// ReadBody reads all of r into one buffer. When size, the Content-Length of
// the body, is known and at most limit, ReadBody reads exactly size bytes
// into a buffer allocated at that size, up to maxPrealloc, and grown as
// io.ReadAll grows past it; a body shorter than size is
// io.ErrUnexpectedEOF. Otherwise it is io.ReadAll. Callers bound r
// themselves (http.MaxBytesReader, io.LimitReader).
func ReadBody(r io.Reader, size, limit int64) ([]byte, error) {
	if size <= 0 || size > limit {
		return io.ReadAll(r)
	}
	buf := make([]byte, 0, min(size, maxPrealloc))
	for int64(len(buf)) < size {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(int64(cap(buf)), size)])
		buf = buf[:len(buf)+n]
		if err == io.EOF && int64(len(buf)) < size {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return buf, nil
}
