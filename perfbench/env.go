package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/topology"
)

// Headers the benchmark's client transport sets so the handler wrapper can
// link its span to the client span that caused it. The daemon ignores them.
const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Req"
)

// daemon is one in-process compile daemon on a loopback listener.
type daemon struct {
	url  string
	srv  *httptest.Server
	svc  *service.Server
	node *cluster.Node // nil outside cluster-herd
	cl   *client.Client
}

// env is a workload's running system: its daemons and the client side.
type env struct {
	daemons []*daemon
	httpc   *http.Client
	// rec is the span recorder of the traced window; nil while untraced.
	rec atomic.Pointer[recorder]
	// open maps a daemon URL to the id of the service.handler span it is
	// running, so a peer hop that daemon makes can name it as parent.
	open sync.Map
	// dir is a temporary directory (the session-drift store) removed on close.
	dir string
	// spill keeps the measured windows' replies; nil during set-up.
	spill *spill
}

// newEnv builds the shared client transport: at most loadCallers
// connections per daemon, one per generator goroutine.
func newEnv() *env {
	tr := &http.Transport{MaxIdleConnsPerHost: loadCallers, MaxConnsPerHost: loadCallers}
	e := &env{}
	e.httpc = &http.Client{Transport: spanTransport{e: e, base: tr}, Timeout: 60 * time.Second}
	return e
}

// spanCtx carries the client span a request belongs to.
type spanCtx struct{ span, req int64 }

type spanCtxKey struct{}

// spanTransport stamps the client span on outgoing requests while tracing,
// and copies reply bodies for the output checks.
type spanTransport struct {
	e    *env
	base http.RoundTripper
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if sc, ok := r.Context().Value(spanCtxKey{}).(spanCtx); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(sc.span, 10))
		r.Header.Set(reqHeader, strconv.FormatInt(sc.req, 10))
	}
	resp, err := t.base.RoundTrip(r)
	if buf, ok := r.Context().Value(teeKey{}).(*bytes.Buffer); ok && err == nil {
		resp.Body = teeBody{ReadCloser: resp.Body, r: io.TeeReader(resp.Body, buf)}
	}
	return resp, err
}

// clientSpan runs fn as a client.call span when tracing, handing fn the
// context that links the daemon's handler span to it.
func (e *env) clientSpan(ctx context.Context, req int64, fn func(ctx context.Context)) {
	rec := e.rec.Load()
	if rec == nil {
		fn(ctx)
		return
	}
	id := rec.newID()
	start := rec.now()
	fn(context.WithValue(ctx, spanCtxKey{}, spanCtx{span: id, req: req}))
	rec.add(span{ID: id, Req: req, Name: "client.call", Start: start, End: rec.now()})
}

// handlerWrap is the benchmark's handler around service.Server.ServeHTTP
// and cluster.Node.ServeHTTP: it records a service.handler span per client
// request, and a cluster.peer_handler span per /peer/* request; a
// forwarded compile's span is the child of the forwarding node's handler
// span.
type handlerWrap struct {
	e    *env
	self string
	next http.Handler
}

func (h *handlerWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.e.rec.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	id := rec.newID()
	name := "service.handler"
	if strings.HasPrefix(r.URL.Path, "/peer/") {
		name = "cluster.peer_handler"
		// A forwarded compile is part of the request the forwarding node
		// is handling; gossip (/peer/digest, /peer/fetch, /peer/ping) is
		// the nodes' own background work and stays a root span.
		if strings.HasSuffix(r.URL.Path, "compile") {
			if v, ok := h.e.open.Load(r.Header.Get(service.ForwardedHeader)); ok {
				parent = v.(spanCtx).span
				req = v.(spanCtx).req
			}
		}
	} else {
		h.e.open.Store(h.self, spanCtx{span: id, req: req})
		defer h.e.open.Delete(h.self)
	}
	start := rec.now()
	h.next.ServeHTTP(w, r)
	rec.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: rec.now()})
}

// swapHandler lets a listener exist (and so have a URL) before the handler
// that answers on it: cluster members must know every URL up front.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// startDaemons starts n daemons with cfg; with clustered they federate as
// cluster.Nodes with default replication and a running gossip loop.
func (e *env) startDaemons(n int, cfg service.Config, clustered bool) error {
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		urls[i] = srv.URL
		e.daemons = append(e.daemons, &daemon{url: srv.URL, srv: srv})
	}
	for i, d := range e.daemons {
		c := cfg
		if c.Topology == nil {
			c.Topology = topology.NewTorus(8, 8)
		}
		svc, err := service.New(c)
		if err != nil {
			return err
		}
		d.svc = svc
		var h http.Handler = svc
		if clustered {
			node, err := cluster.NewNode(svc, cluster.Config{Self: urls[i], Peers: urls})
			if err != nil {
				return err
			}
			svc.SetPeers(node)
			d.node = node
			h = node
		}
		var wrapped http.Handler = &handlerWrap{e: e, self: urls[i], next: h}
		swaps[i].h.Store(&wrapped)
		d.cl = &client.Client{BaseURL: d.url, HTTPClient: e.httpc}
	}
	if clustered {
		// Converge: every member probes every other once, so each ring
		// holds all members before the first request.
		for _, d := range e.daemons {
			d.node.ProbeRound()
		}
		for _, d := range e.daemons {
			if got := len(d.node.Owners("converged")); got != cluster.DefaultReplication {
				return fmt.Errorf("cluster did not converge: %d owners", got)
			}
			d.node.Start()
		}
	}
	return nil
}

// close stops every daemon and waits for their goroutines, then removes
// the temporary directory.
func (e *env) close() {
	for _, d := range e.daemons {
		if d.node != nil {
			d.node.Stop()
		}
		d.srv.Close()
		if d.svc != nil {
			d.svc.Close()
		}
	}
	e.httpc.CloseIdleConnections()
	if e.spill != nil {
		e.spill.close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// counters is the daemons' summed counter state at one instant.
type counters struct {
	metrics []*service.MetricsSnapshot
	cluster []cluster.MetricsSnapshot
}

func (e *env) scrape(ctx context.Context) (counters, error) {
	var c counters
	for _, d := range e.daemons {
		m, err := d.cl.Metrics(ctx)
		if err != nil {
			return c, fmt.Errorf("scrape %s: %w", d.url, err)
		}
		c.metrics = append(c.metrics, m)
		if d.node != nil {
			c.cluster = append(c.cluster, d.node.Metrics())
		}
	}
	return c, nil
}

// endpointSum adds one endpoint's counters over every daemon.
func (c counters) endpointSum(name string) service.EndpointMetrics {
	var s service.EndpointMetrics
	for _, m := range c.metrics {
		ep := m.Endpoints[name]
		s.Requests += ep.Requests
		s.Hits += ep.Hits
		s.StoreHits += ep.StoreHits
		s.PeerHits += ep.PeerHits
		s.Misses += ep.Misses
		s.Coalesced += ep.Coalesced
		s.Rejected += ep.Rejected
		s.Errors += ep.Errors
	}
	return s
}

// endpointDelta is the per-endpoint counter growth between two scrapes,
// summed over the serving endpoints.
func endpointDelta(before, after counters, names ...string) service.EndpointMetrics {
	var d service.EndpointMetrics
	for _, n := range names {
		a, b := after.endpointSum(n), before.endpointSum(n)
		d.Requests += a.Requests - b.Requests
		d.Hits += a.Hits - b.Hits
		d.StoreHits += a.StoreHits - b.StoreHits
		d.PeerHits += a.PeerHits - b.PeerHits
		d.Misses += a.Misses - b.Misses
		d.Coalesced += a.Coalesced - b.Coalesced
		d.Rejected += a.Rejected - b.Rejected
		d.Errors += a.Errors - b.Errors
	}
	return d
}

var servingEndpoints = []string{"compile", "recompile", "session"}
