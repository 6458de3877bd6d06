package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/service"
	"repro/internal/service/client"
)

// spill keeps the reply bodies of a measured window in a file for the
// output checks that follow it. Held in memory they would make the
// process's resident size, and its garbage collector's work, grow with
// the number of operations a run completes, so a faster daemon would
// read as a hungrier one.
type spill struct {
	mu  sync.Mutex
	f   *os.File
	off int64
}

func newSpill(dir string) (*spill, error) {
	f, err := os.CreateTemp(dir, "replies-")
	if err != nil {
		return nil, err
	}
	return &spill{f: f}, nil
}

// keep stores b; a nil spill keeps it in memory (the set-up's replies).
func (s *spill) keep(b []byte) (reply, error) {
	if s == nil {
		return reply{mem: b}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(b, s.off); err != nil {
		return reply{}, fmt.Errorf("spill reply: %w", err)
	}
	r := reply{sp: s, off: s.off, n: len(b)}
	s.off += int64(len(b))
	return r, nil
}

func (s *spill) close() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// reply is one reply body, in a spill file or in memory.
type reply struct {
	sp  *spill
	off int64
	n   int
	mem []byte
}

func (r reply) bytes() ([]byte, error) {
	if r.sp == nil {
		return r.mem, nil
	}
	b := make([]byte, r.n)
	_, err := r.sp.f.ReadAt(b, r.off)
	return b, err
}

// result decodes a /compile or /recompile reply, returning the result's
// raw bytes and the decoded result.
func (r reply) result() (json.RawMessage, *service.Result, error) {
	b, err := r.bytes()
	if err != nil {
		return nil, nil, err
	}
	var env service.Response
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, nil, fmt.Errorf("decode reply: %w", err)
	}
	var res service.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, nil, fmt.Errorf("decode result: %w", err)
	}
	return env.Result, &res, nil
}

// session decodes a /session stream as client.Session does.
func (r reply) session() (*client.SessionResult, error) {
	b, err := r.bytes()
	if err != nil {
		return nil, err
	}
	out := &client.SessionResult{}
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		var c service.SessionChunk
		if err := dec.Decode(&c); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("decode session stream: %w", err)
		}
		switch c.Type {
		case service.SessionChunkHeader:
			out.Header = c
		case service.SessionChunkPhase:
			out.Phases = append(out.Phases, c)
		case service.SessionChunkDone:
			out.Trailer = c
		}
	}
}

// teeKey carries the buffer a request's reply body is copied into.
type teeKey struct{}

// teeBody copies a reply body into a buffer as the client reads it.
type teeBody struct {
	io.ReadCloser
	r io.Reader
}

func (t teeBody) Read(p []byte) (int, error) { return t.r.Read(p) }
