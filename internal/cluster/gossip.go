package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/qos"
	"repro/internal/service"
)

// fwdHeader identifies the calling node on every peer request, which
// doubles as passive liveness evidence for the receiver.
const fwdHeader = service.ForwardedHeader

// This file is the anti-entropy half of the cluster: because compilation
// is deterministic and keys are content hashes, replication needs no
// consistency protocol — an artifact either exists everywhere with the
// same bytes or is recomputed identically. Gossip therefore reduces to
// set reconciliation: each tick a node probes its peers (SWIM-style
// suspect/dead/rejoin), then exchanges a summary digest of its warm key
// set with one random non-dead partner and pulls whatever it is missing
// and responsible for. A replica set of R means a key survives R-1
// deaths; after a death the shrunken ring makes the old successor the new
// owner, which — by the successor-list structure of consistent hashing —
// is exactly the replica gossip already warmed.

// digestDoc is the /peer/digest reply: the node's warm key set and its
// summary digest. Equal digests end the exchange without shipping keys
// a second time (the keys ride along so one round trip suffices when they
// differ; at millions of keys this would page, see DESIGN.md §13 for the
// Merkle-tree upgrade path).
type digestDoc struct {
	Node     string   `json:"node"`
	Draining bool     `json:"draining"`
	Digest   string   `json:"digest"`
	Keys     []string `json:"keys"`
}

// summaryDigest hashes a sorted key set; order-independent input, stable
// across processes.
func summaryDigest(keys []string) string {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, k := range sorted {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// handlePeerDigest serves GET /peer/digest.
func (n *Node) handlePeerDigest(w http.ResponseWriter, r *http.Request) {
	if from := r.Header.Get(fwdHeader); from != "" {
		n.members.observeAlive(from)
	}
	keys := n.svc.ArtifactKeys()
	doc := digestDoc{
		Node:     n.self,
		Draining: n.draining.Load(),
		Digest:   summaryDigest(keys),
		Keys:     keys,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// Start launches the background loop: every GossipInterval, one probe
// sweep over all configured peers followed by one anti-entropy exchange
// with a random non-dead partner. Stop halts it.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(n.done)
		ticker := time.NewTicker(n.interval)
		defer ticker.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-ticker.C:
				n.ProbeRound()
				n.GossipRound()
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Idempotent;
// safe on a node that was never started.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	if n.started.Load() {
		<-n.done
	}
}

// ProbeRound probes every configured peer once, in parallel, updating the
// liveness state machine. Dead peers are probed too — that is the rejoin
// path. Exported so operators (and tests) can force a sweep.
func (n *Node) ProbeRound() {
	n.metrics.probeRounds.Add(1)
	peers := n.members.all()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if n.probe(peer) {
				if n.members.observeAlive(peer) {
					n.logf("peer %s rejoined", peer)
				}
			} else {
				if n.members.observeFailure(peer) {
					n.logf("peer %s declared dead", peer)
				}
			}
		}(p)
	}
	wg.Wait()
}

// probe performs one liveness check.
func (n *Node) probe(peer string) bool {
	req, err := http.NewRequest(http.MethodGet, peer+"/peer/ping", nil)
	if err != nil {
		return false
	}
	req.Header.Set(fwdHeader, n.self)
	resp, _, err := n.roundTrip(req, n.probeTimeout)
	return err == nil && resp.StatusCode == http.StatusOK
}

// GossipRound runs one anti-entropy exchange: fetch a random non-dead
// peer's digest, and pull every artifact it has that this node lacks and
// is responsible for (owner or replica on the current ring). Exported for
// operators and tests; the background loop calls it once per tick.
func (n *Node) GossipRound() {
	peers := n.members.candidates()
	if len(peers) == 0 {
		return
	}
	n.gossipWith(peers[n.pick(len(peers))])
}

// gossipWith reconciles against one specific peer.
func (n *Node) gossipWith(peer string) {
	n.metrics.gossipRounds.Add(1)
	req, err := http.NewRequest(http.MethodGet, peer+"/peer/digest", nil)
	if err != nil {
		n.metrics.gossipErrors.Add(1)
		return
	}
	req.Header.Set(fwdHeader, n.self)
	resp, body, err := n.roundTrip(req, n.probeTimeout)
	if err != nil || resp.StatusCode != http.StatusOK {
		n.metrics.gossipErrors.Add(1)
		n.members.observeFailure(peer)
		return
	}
	n.members.observeAlive(peer)
	var doc digestDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		n.metrics.gossipErrors.Add(1)
		return
	}
	local := make(map[string]bool)
	for _, k := range n.svc.ArtifactKeys() {
		local[k] = true
	}
	if doc.Digest == summaryDigest(keysOf(local)) {
		n.metrics.gossipSkipped.Add(1)
		return
	}
	for _, k := range doc.Keys {
		if local[k] || !n.responsible(k) {
			continue
		}
		if err := n.pull(peer, k); err != nil {
			n.metrics.gossipErrors.Add(1)
			n.logf("gossip pull %s from %s failed: %v", k[:12], peer, err)
			continue
		}
		n.metrics.gossipPulled.Add(1)
	}
}

// pull fetches one artifact from a peer and installs it locally.
func (n *Node) pull(peer, key string) error {
	req, err := http.NewRequest(http.MethodGet, peer+"/peer/fetch?key="+key, nil)
	if err != nil {
		return err
	}
	req.Header.Set(fwdHeader, n.self)
	resp, body, err := n.roundTrip(req, n.fwdTimeout)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: fetch answered %d", resp.StatusCode)
	}
	// The fetch reply names the owning tenant; the local copy is billed to
	// the same class so replication cannot launder one tenant's footprint
	// into another's partition. Bytes that are not JSON install nothing.
	return n.svc.ArtifactPutOwned(key, resp.Header.Get(qos.TenantHeader), body)
}

// pick returns a pseudo-random index in [0, n) from the node's own
// SplitMix64 stream — no global rand, deterministic per (self, call
// count), which keeps gossip partner choice reproducible in tests that
// control the call sequence.
func (n *Node) pick(count int) int {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	n.rngState += 0x9e3779b97f4a7c15
	z := n.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(count))
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func contextWithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}
