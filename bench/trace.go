package main

import (
	"sort"

	"profirt/internal/obs"
)

// selfTimes returns each span's self time in ns: its duration minus
// the part of its interval its direct children cover. Children that
// overlap, such as pool jobs running side by side, count once.
func selfTimes(evs []obs.Event) map[uint64]int64 {
	kids := map[uint64][]obs.Event{}
	for _, ev := range evs {
		if ev.Parent != 0 {
			kids[ev.Parent] = append(kids[ev.Parent], ev)
		}
	}
	out := make(map[uint64]int64, len(evs))
	for _, ev := range evs {
		start, end := ev.StartNs, ev.StartNs+ev.DurNs
		type span struct{ lo, hi int64 }
		var cover []span
		for _, k := range kids[ev.ID] {
			lo, hi := max(k.StartNs, start), min(k.StartNs+k.DurNs, end)
			if lo < hi {
				cover = append(cover, span{lo, hi})
			}
		}
		sort.Slice(cover, func(i, j int) bool { return cover[i].lo < cover[j].lo })
		var covered, reach int64 = 0, start
		for _, c := range cover {
			lo := max(c.lo, reach)
			if c.hi > lo {
				covered += c.hi - lo
			}
			reach = max(reach, c.hi)
		}
		out[ev.ID] = ev.DurNs - covered
	}
	return out
}

// selfByName totals self time per span name, in µs.
func selfByName(evs []obs.Event) map[string]float64 {
	self := selfTimes(evs)
	out := map[string]float64{}
	for _, ev := range evs {
		out[ev.Name] += float64(self[ev.ID]) / 1e3
	}
	return out
}
