package islands

// Fuzz targets for the string resolvers: no input may panic, successful
// resolutions must round-trip through String, and errors must never hand
// the caller a usable value by accident. `go test` runs the seed corpus;
// `go test -fuzz FuzzTopologyByName` explores further.

import (
	"testing"

	"evoprot/internal/core"
)

// coreConfigForFuzz is a minimal valid engine template for config-level
// fuzz assertions.
func coreConfigForFuzz() core.Config { return core.Config{Generations: 5} }

func FuzzTopologyByName(f *testing.F) {
	for _, seed := range []string{"", "ring", "broadcast", "all", "star", "RING", "ring ", "броад", "\x00", "broadcastbroadcast"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		topo, err := TopologyByName(name)
		if err != nil {
			if topo != Ring { // the zero value, never a silently-usable third topology
				t.Fatalf("error case returned topology %v", topo)
			}
			return
		}
		// A resolved topology names itself back to the same value.
		back, err := TopologyByName(topo.String())
		if err != nil || back != topo {
			t.Fatalf("topology %v does not round-trip: %v, %v", topo, back, err)
		}
		// And it must be accepted by a full config validation.
		cfg := Config{Topology: topo, Engine: coreConfigForFuzz()}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("resolved topology %v rejected by Validate: %v", topo, err)
		}
	})
}
