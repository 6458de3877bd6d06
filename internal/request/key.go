package request

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
)

// Triple is one entry of a canonical communication pattern: a connection
// from Src to Dst carrying Flits flits, optionally injected at slot Start
// (zero for pure patterns with no traced timing). Triples are the unit the
// content-addressed schedule cache hashes: a phase's message list reduced to
// triples, canonically ordered, identifies the compiled artifact regardless
// of the order a caller happened to enumerate its messages in.
type Triple struct {
	Src, Dst, Flits, Start int
}

// Triples converts the request set to unit-flit triples, the form PatternKey
// hashes. Duplicate requests stay duplicated — the multiset is part of the
// pattern's identity.
func (s Set) Triples(flits int) []Triple {
	out := make([]Triple, len(s))
	for i, r := range s {
		out[i] = Triple{Src: int(r.Src), Dst: int(r.Dst), Flits: flits}
	}
	return out
}

// CanonicalTriples returns a copy of the triples in canonical order: sorted
// by (Src, Dst, Start, Flits). Two message lists that are permutations of
// each other canonicalize identically, which is what makes PatternKey
// independent of request order and of map iteration in any producer.
func CanonicalTriples(ts []Triple) []Triple {
	out := make([]Triple, len(ts))
	copy(out, ts)
	slices.SortFunc(out, CompareTriples)
	return out
}

// CompareTriples orders triples canonically, by (Src, Dst, Start, Flits).
// Triples that compare equal are identical, so every sort of a multiset
// yields the same sequence.
func CompareTriples(a, b Triple) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.Flits, b.Flits)
}

// patternKeyDomain separates PatternKey digests from any other SHA-256 use;
// bumping the version invalidates every persisted key on purpose.
const patternKeyDomain = "ccomm-pattern-v1"

// PatternKey returns the canonical content hash of a communication pattern:
// a hex SHA-256 over the canonically ordered triples, the topology name,
// and any extra parameters that select a different compiled artifact
// (scheduler name, fault mask, phase attributes). The encoding is
// injective — every field is length- or count-prefixed — so two inputs
// collide only if SHA-256 itself collides, and the triple ordering is
// canonicalized first, so the key never depends on request order.
func PatternKey(triples []Triple, topology string, params ...string) string {
	if !slices.IsSortedFunc(triples, CompareTriples) {
		triples = CanonicalTriples(triples)
	}
	var ph PatternHash
	ph.Start(topology, len(triples), params...)
	for _, t := range triples {
		ph.Add(t)
	}
	return ph.Sum()
}

// PatternHash computes PatternKey incrementally, for callers that hold the
// triples in canonical order in some other form and would otherwise copy
// them: Start, then Add each triple in canonical order, then Sum. Adding
// out of order yields a key no PatternKey call produces. The zero value is
// ready to Start, and a PatternHash may be reused after Sum.
type PatternHash struct {
	h hash.Hash
	n int
	// buf batches the encoding into few hash writes.
	buf [1024]byte
}

// Start begins the key of a pattern of count triples on topology.
func (p *PatternHash) Start(topology string, count int, params ...string) {
	if p.h == nil {
		p.h = sha256.New()
	}
	p.h.Reset()
	p.n = 0
	p.putStr(patternKeyDomain)
	p.putStr(topology)
	p.putInt(len(params))
	for _, s := range params {
		p.putStr(s)
	}
	p.putInt(count)
}

// Add appends the next triple in canonical order.
func (p *PatternHash) Add(t Triple) {
	if p.n+32 > len(p.buf) {
		p.flush()
	}
	b := p.buf[p.n : p.n+32]
	binary.LittleEndian.PutUint64(b[0:], uint64(int64(t.Src)))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(t.Dst)))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(t.Flits)))
	binary.LittleEndian.PutUint64(b[24:], uint64(int64(t.Start)))
	p.n += 32
}

// Sum returns the hex key.
func (p *PatternHash) Sum() string {
	p.flush()
	return hex.EncodeToString(p.h.Sum(nil))
}

func (p *PatternHash) flush() {
	p.h.Write(p.buf[:p.n])
	p.n = 0
}

func (p *PatternHash) putInt(v int) {
	if p.n+8 > len(p.buf) {
		p.flush()
	}
	binary.LittleEndian.PutUint64(p.buf[p.n:], uint64(int64(v)))
	p.n += 8
}

func (p *PatternHash) putStr(s string) {
	p.putInt(len(s))
	if p.n+len(s) > len(p.buf) {
		p.flush()
	}
	if len(s) > len(p.buf) {
		p.h.Write([]byte(s))
		return
	}
	p.n += copy(p.buf[p.n:], s)
}
