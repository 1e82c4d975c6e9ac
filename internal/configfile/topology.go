package configfile

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

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
	// Bridges couple the segments.
	Bridges []BridgeJSON `json:"bridges"`
}

// TopologySegmentJSON names one ring and embeds its description.
type TopologySegmentJSON struct {
	Name string `json:"name"`
	// Network is the ring's single-segment description.
	Network File `json:"network"`
}

// BridgeJSON mirrors topology.Bridge.
type BridgeJSON struct {
	Name string `json:"name"`
	From string `json:"from"`
	To   string `json:"to"`
	// Latency is the store-and-forward delay in bit times.
	Latency timeunit.Ticks `json:"latency,omitempty"`
	Relays  []RelayJSON    `json:"relays"`
}

// RelayJSON mirrors topology.Relay.
type RelayJSON struct {
	Name       string         `json:"name"`
	FromStream string         `json:"fromStream"`
	ToStream   string         `json:"toStream"`
	Deadline   timeunit.Ticks `json:"deadline"`
}

// Build converts the parsed file into the simulated topology and
// returns it with the analytic topology derived from it by
// topology.FromSim, validating both.
func (f *TopologyFile) Build() (topology.Topology, topology.SimTopology, error) {
	sim := topology.SimTopology{Seed: f.Seed}
	for _, sj := range f.Segments {
		_, cfg, err := sj.Network.Build()
		if err != nil {
			return topology.Topology{}, topology.SimTopology{}, fmt.Errorf("configfile: segment %q: %w", sj.Name, err)
		}
		if f.Horizon > 0 {
			cfg.Horizon = f.Horizon
		}
		sim.Segments = append(sim.Segments, topology.SimSegment{Name: sj.Name, Cfg: cfg})
	}
	for _, bj := range f.Bridges {
		b := topology.Bridge{Name: bj.Name, From: bj.From, To: bj.To, Latency: bj.Latency}
		for _, rj := range bj.Relays {
			b.Relays = append(b.Relays, topology.Relay{
				Name:       rj.Name,
				FromStream: rj.FromStream,
				ToStream:   rj.ToStream,
				Deadline:   rj.Deadline,
			})
		}
		sim.Bridges = append(sim.Bridges, b)
	}
	if err := sim.Validate(); err != nil {
		return topology.Topology{}, topology.SimTopology{}, fmt.Errorf("configfile: %w", err)
	}
	top := topology.FromSim(sim)
	if err := top.Validate(); err != nil {
		return topology.Topology{}, topology.SimTopology{}, fmt.Errorf("configfile: %w", err)
	}
	return top, sim, nil
}

// LoadTopology reads and builds a topology description from a JSON
// file.
func LoadTopology(path string) (topology.Topology, topology.SimTopology, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return topology.Topology{}, topology.SimTopology{}, err
	}
	return ParseTopology(raw)
}

// ParseTopology builds a topology description from JSON bytes.
func ParseTopology(raw []byte) (topology.Topology, topology.SimTopology, error) {
	var f TopologyFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return topology.Topology{}, topology.SimTopology{}, fmt.Errorf("configfile: %w", err)
	}
	return f.Build()
}
