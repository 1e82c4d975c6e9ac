package configfile

import (
	"bytes"
	"fmt"
	"os"

	"profirt/internal/timeunit"
	"profirt/internal/topology"
)

// TopologyFile is the on-disk JSON schema for a bridged multi-segment
// installation: named segments, each a complete single-ring network
// description (the File schema), joined by store-and-forward bridges.
type TopologyFile struct {
	// Seed drives all randomness; each segment derives its own seed
	// from it (per-segment "seed" fields are ignored).
	Seed int64 `json:"seed,omitempty"`
	// Horizon, when set, overrides every segment's simulation span
	// (bridged time is global, so segments must agree on one horizon).
	Horizon timeunit.Ticks `json:"horizon,omitempty"`
	// Segments in any order.
	Segments []TopologySegmentJSON `json:"segments"`
	// Bridges couple the segments; latencies and deadlines are in bit
	// times.
	Bridges []topology.Bridge `json:"bridges"`
}

// TopologySegmentJSON names one ring and embeds its description.
type TopologySegmentJSON struct {
	Name string `json:"name"`
	// Network is the ring's single-segment description.
	Network File `json:"network"`
}

// Build converts the parsed file into its topology and validates it.
func (f *TopologyFile) Build() (topology.Topology, error) {
	top := topology.Topology{Seed: f.Seed, Bridges: f.Bridges}
	for _, sj := range f.Segments {
		_, cfg, err := sj.Network.Build()
		if err != nil {
			return topology.Topology{}, fmt.Errorf("configfile: segment %q: %w", sj.Name, err)
		}
		if f.Horizon > 0 {
			cfg.Horizon = f.Horizon
		}
		top.Segments = append(top.Segments, topology.Segment{Name: sj.Name, Cfg: cfg})
	}
	if err := top.Validate(); err != nil {
		return topology.Topology{}, fmt.Errorf("configfile: %w", err)
	}
	return top, nil
}

// LoadTopology reads and builds a topology description from a JSON
// file.
func LoadTopology(path string) (topology.Topology, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return topology.Topology{}, err
	}
	return ParseTopology(raw)
}

// ParseTopology builds a topology description from JSON bytes.
func ParseTopology(raw []byte) (topology.Topology, error) {
	var f TopologyFile
	if err := DecodeStrict(bytes.NewReader(raw), &f); err != nil {
		return topology.Topology{}, fmt.Errorf("configfile: %w", err)
	}
	return f.Build()
}
