// Package topology models multi-segment PROFIBUS installations: several
// independent token rings (segments), coupled by store-and-forward
// bridges that relay selected message streams from one ring to another.
// The paper analyses a single ring; coupling segments is the step that
// unlocks end-to-end response times across rings, with the same
// multi-resource structure studied for bridged time-sensitive networks.
//
// A relay watches one high-priority stream on the bridge's source
// segment: whenever one of that stream's message cycles completes, the
// bridge forwards the payload and — after its store-and-forward
// latency — releases one request of the designated high-priority stream
// on the destination segment. The relayed stream therefore inherits the
// source stream's period, and its release jitter is the source's
// response time plus the bridge latency (the Sec. 4.1 inheritance model
// applied across rings). A relay carries an end-to-end deadline,
// anchored at the nominal release of the chain's origin stream.
//
// One Topology, a set of named profibus.Config segments and the
// bridges between them, drives both views of the installation:
//
//   - Analyze composes the per-segment schedulability analyses
//     through the bridges by jitter inheritance, yielding per-segment
//     verdicts and origin-anchored end-to-end bounds per relay. Each
//     segment's model is profibus.Network of its configuration,
//     analysed under its first master's dispatcher. Every segment
//     bound is memo.MasterBounds, the per-hop bound the
//     holistic analysis uses too: it includes the stream's inherited
//     jitter, which is capped at core.JitterCap.
//   - Simulate shards the discrete-event simulator per segment: every
//     segment runs as its own profibus.Simulate worker on the shared
//     internal/pool, and bridge relays are exchanged between rounds as
//     explicit release lists until they reach a fixed point. Results
//     are byte-identical at any parallelism.
package topology

import (
	"errors"
	"fmt"
	"sort"

	"profirt/internal/profibus"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base (bit times).
type Ticks = timeunit.Ticks

// Relay forwards one high-priority stream across its bridge: each
// completed cycle of FromStream on the bridge's source segment releases
// one request of ToStream on the destination segment, Latency ticks
// after the completion.
type Relay struct {
	// Name labels the relay in reports.
	Name string `json:"name"`
	// FromStream names the watched high-priority stream on the bridge's
	// From segment. The name must identify exactly one high-priority
	// stream there.
	FromStream string `json:"fromStream"`
	// ToStream names the relayed high-priority stream on the To
	// segment. A stream can be the target of at most one relay; its
	// release pattern is owned by the bridge (the stream's own
	// period/offset releases are replaced by the relayed ones).
	ToStream string `json:"toStream"`
	// Deadline is the end-to-end deadline: from the nominal release of
	// the chain's origin stream to the completion of ToStream's cycle.
	Deadline Ticks `json:"deadline"`
}

// Bridge is a store-and-forward link between two segments, relaying the
// listed streams from the From ring to the To ring.
type Bridge struct {
	// Name labels the bridge.
	Name string `json:"name"`
	// From and To name the coupled segments.
	From string `json:"from"`
	To   string `json:"to"`
	// Latency is the store-and-forward delay between a source cycle's
	// completion and the relayed release on the destination ring.
	Latency Ticks `json:"latency,omitempty"`
	// Relays are the streams this bridge forwards.
	Relays []Relay `json:"relays"`
}

// Segment is one token ring of the topology.
type Segment struct {
	// Name identifies the segment (unique within the topology).
	Name string
	// Cfg is the ring's simulator configuration. Relay-target streams
	// must appear among its high-priority streams; the bridges own
	// their period and release jitter in the analysis and their
	// release pattern in the simulation. Analyze derives the ring's
	// model with profibus.Network and analyses it under the first
	// master's Dispatcher (one policy per segment). Simulate overrides
	// its Seed by the per-segment derivation from Topology.Seed and
	// enables cycle tracing on bridge-relay endpoint streams (the
	// bridges need their traces).
	Cfg profibus.Config
}

// Topology is a multi-segment installation: one description that both
// Analyze and Simulate take. All segments must share one horizon
// (bridged time is global).
type Topology struct {
	Segments []Segment
	Bridges  []Bridge
	// Seed drives all simulated randomness; each segment derives its
	// own seed as Seed ⊕ FNV-1a(segment name), so results are
	// reproducible and independent of worker scheduling.
	Seed int64
}

// streamKey identifies a stream endpoint within a topology.
type streamKey struct {
	seg    string
	stream string
}

// loc addresses one high-priority stream inside a topology: segment
// index, master index, the stream's index in the master's
// Cfg.Masters[m].Streams (the simulator's view) and its index among
// the master's high-priority streams, profibus.Network's High (the
// analysis's view).
type loc struct{ seg, master, stream, high int }

// resolvedRelay pairs a relay with its resolved endpoint locations.
type resolvedRelay struct {
	bridge  string
	relay   Relay
	latency Ticks
	from    loc
	to      loc
}

// resolveRelays resolves every bridge relay against the topology's
// high-priority streams, in bridge order then relay order. Callers
// validate the topology first, so every lookup hits.
func resolveRelays(t Topology) []resolvedRelay {
	index := map[streamKey]loc{}
	for si, s := range t.Segments {
		for mi, m := range s.Cfg.Masters {
			high := 0
			for sti, sc := range m.Streams {
				if sc.High {
					index[streamKey{seg: s.Name, stream: sc.Name}] = loc{seg: si, master: mi, stream: sti, high: high}
					high++
				}
			}
		}
	}
	var out []resolvedRelay
	for _, b := range t.Bridges {
		for _, r := range b.Relays {
			out = append(out, resolvedRelay{
				bridge:  b.Name,
				relay:   r,
				latency: b.Latency,
				from:    index[streamKey{seg: b.From, stream: r.FromStream}],
				to:      index[streamKey{seg: b.To, stream: r.ToStream}],
			})
		}
	}
	return out
}

// segmentStreams lists, per segment name, how often each high-priority
// stream name occurs (relay endpoints must resolve unambiguously).
type segmentStreams map[string]map[string]int

// validateBridges checks the bridge layer against the segments' high
// streams: segment references resolve, endpoints name exactly one
// high-priority stream, every target is fed by at most one relay, and
// the relay chain graph (FromStream → ToStream edges) is acyclic so
// period/jitter inheritance is well-defined.
func validateBridges(bridges []Bridge, segs segmentStreams) error {
	resolve := func(b Bridge, seg, name, role string) (streamKey, error) {
		streams, ok := segs[seg]
		if !ok {
			return streamKey{}, fmt.Errorf("topology: bridge %q references unknown segment %q", b.Name, seg)
		}
		switch streams[name] {
		case 0:
			return streamKey{}, fmt.Errorf("topology: bridge %q: %s stream %q not a high-priority stream of segment %q", b.Name, role, name, seg)
		case 1:
			return streamKey{seg: seg, stream: name}, nil
		default:
			return streamKey{}, fmt.Errorf("topology: bridge %q: %s stream %q is ambiguous in segment %q", b.Name, role, name, seg)
		}
	}
	targets := map[streamKey]string{}
	edges := map[streamKey][]streamKey{}
	for _, b := range bridges {
		if b.From == b.To {
			return fmt.Errorf("topology: bridge %q joins segment %q to itself", b.Name, b.From)
		}
		if b.Latency < 0 {
			return fmt.Errorf("topology: bridge %q: Latency must be non-negative", b.Name)
		}
		if len(b.Relays) == 0 {
			return fmt.Errorf("topology: bridge %q relays no streams", b.Name)
		}
		for _, r := range b.Relays {
			from, err := resolve(b, b.From, r.FromStream, "source")
			if err != nil {
				return err
			}
			to, err := resolve(b, b.To, r.ToStream, "target")
			if err != nil {
				return err
			}
			if r.Deadline <= 0 {
				return fmt.Errorf("topology: relay %q: Deadline must be positive", r.Name)
			}
			if prev, dup := targets[to]; dup {
				return fmt.Errorf("topology: stream %q of segment %q is targeted by relays %q and %q", to.stream, to.seg, prev, r.Name)
			}
			targets[to] = r.Name
			edges[from] = append(edges[from], to)
		}
	}
	return checkAcyclic(edges)
}

// checkAcyclic rejects cycles in the relay chain graph.
func checkAcyclic(edges map[streamKey][]streamKey) error {
	const (
		visiting = 1
		done     = 2
	)
	state := map[streamKey]int{}
	var visit func(k streamKey) error
	visit = func(k streamKey) error {
		switch state[k] {
		case visiting:
			return fmt.Errorf("topology: relay chain through stream %q of segment %q is cyclic", k.stream, k.seg)
		case done:
			return nil
		}
		state[k] = visiting
		for _, next := range edges[k] {
			if err := visit(next); err != nil {
				return err
			}
		}
		state[k] = done
		return nil
	}
	// Visit roots in sorted order: with several cycles present, which
	// one the error names must not depend on map iteration order —
	// Validate's output is part of the byte-identity contract.
	roots := make([]streamKey, 0, len(edges))
	for k := range edges {
		roots = append(roots, k)
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].seg != roots[j].seg {
			return roots[i].seg < roots[j].seg
		}
		return roots[i].stream < roots[j].stream
	})
	for _, k := range roots {
		if err := visit(k); err != nil {
			return err
		}
	}
	return nil
}

// Validate reports structural problems in the topology: every
// segment's configuration must be valid, the segments must share one
// horizon, and the bridges must resolve (see validateBridges).
func (t Topology) Validate() error {
	if len(t.Segments) == 0 {
		return errors.New("topology: no segments")
	}
	segs := segmentStreams{}
	for _, s := range t.Segments {
		if err := s.Cfg.Validate(); err != nil {
			return fmt.Errorf("topology: segment %q: %w", s.Name, err)
		}
		if horizon := t.Segments[0].Cfg.Horizon; s.Cfg.Horizon != horizon {
			return fmt.Errorf("topology: segment %q horizon %d differs from %q's %d (bridged time is global)",
				s.Name, s.Cfg.Horizon, t.Segments[0].Name, horizon)
		}
		streams := map[string]int{}
		for _, m := range s.Cfg.Masters {
			for _, sc := range m.Streams {
				if sc.High {
					streams[sc.Name]++
				}
			}
		}
		segs[s.Name] = streams
	}
	seen := map[string]bool{}
	for _, s := range t.Segments {
		switch {
		case s.Name == "":
			return errors.New("topology: segment name must not be empty")
		case seen[s.Name]:
			return fmt.Errorf("topology: duplicate segment name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return validateBridges(t.Bridges, segs)
}
