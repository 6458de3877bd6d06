package topology

import (
	"sync"

	"repro/internal/network"
)

// maxShared bounds the interned topologies. Beyond it Shared parses a
// fresh value per call, as Parse does, rather than evicting one in use.
const maxShared = 16

var shared = struct {
	sync.Mutex
	m map[string]network.Topology
}{m: make(map[string]network.Topology)}

// Shared is Parse with one value per name. The route cache
// (network.CachedRoute) is keyed by topology identity and drops every
// table once it tracks too many values, so a server that parsed a fresh
// topology per request would route every such request cold and evict
// everyone else's tables. Callers must not mutate the returned value.
func Shared(name string) (network.Topology, error) {
	shared.Lock()
	defer shared.Unlock()
	if t, ok := shared.m[name]; ok {
		return t, nil
	}
	t, err := Parse(name)
	if err != nil {
		return nil, err
	}
	if len(shared.m) < maxShared {
		shared.m[name] = t
	}
	return t, nil
}
