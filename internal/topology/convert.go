package topology

import "profirt/internal/profibus"

// FromSim derives the analytic topology from a simulated one, so one
// description drives both views: each segment's network comes from
// profibus.Network, and its analysis dispatcher from the segment's
// first master (the analytic layer models one policy per segment; give
// mixed-dispatcher segments an explicit analytic Topology instead).
func FromSim(t SimTopology) Topology {
	var out Topology
	for _, s := range t.Segments {
		seg := Segment{Name: s.Name, Net: profibus.Network(s.Cfg)}
		if len(s.Cfg.Masters) > 0 {
			seg.Dispatcher = s.Cfg.Masters[0].Dispatcher
		}
		out.Segments = append(out.Segments, seg)
	}
	out.Bridges = append([]Bridge(nil), t.Bridges...)
	return out
}
