package store_test

import (
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/schedule"
	"repro/internal/store"
	"repro/internal/topology"
)

// FuzzDecodeResult feeds arbitrary bytes to the schedule decoder, the trust
// boundary every stored base schedule crosses before the compiler reuses
// it. Decoding must never panic, and a schedule that decodes and binds to
// its topology must survive re-encoding: decoding EncodeResult of the bound
// schedule gives back the same Decoded.
func FuzzDecodeResult(f *testing.F) {
	topos := []network.Topology{topology.NewTorus(4, 4), topology.NewRing(16)}
	for _, topo := range topos {
		res, err := schedule.Greedy{}.Schedule(topo, patterns.Ring(topo.NumNodes()))
		if err != nil {
			f.Fatal(err)
		}
		enc := store.EncodeResult(res)
		f.Add(enc)
		// The TestDecodeRejectsGarbage cases.
		f.Add([]byte{})
		f.Add(append([]byte("XXXXXX\n"), enc[7:]...))
		f.Add(enc[:len(enc)/2])
		f.Add(append(append([]byte(nil), enc...), 0x01))
		f.Add(append(append([]byte(nil), enc[:8]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := store.DecodeResult(data)
		if err != nil {
			return
		}
		for _, topo := range topos {
			res, err := dec.Result(topo)
			if topo.Name() != dec.Topology {
				if err == nil {
					t.Fatalf("schedule for %q bound to %s", dec.Topology, topo.Name())
				}
				continue
			}
			if err != nil {
				t.Fatalf("binding to %s: %v", topo.Name(), err)
			}
			again, err := store.DecodeResult(store.EncodeResult(res))
			if err != nil {
				t.Fatalf("re-encoded schedule does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, dec) {
				t.Fatalf("re-encoding changed the schedule: %+v vs %+v", again, dec)
			}
		}
	})
}
