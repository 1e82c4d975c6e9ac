package core

// SchedulableWith applies a per-master response-time bounds function
// across the network under T_cycle from Eq. 14 and folds the Eq. 12
// style per-stream condition R <= D into verdicts. It is the single
// verdict-assembly shared by the FCFS, DM and EDF network tests and the
// memoized mirrors of the latter two (internal/memo), so verdict
// semantics cannot drift between policies or between the cached and
// uncached paths. The verdicts copy each bound, so bounds may reuse
// one buffer across masters.
func SchedulableWith(n Network, bounds func(m Master, tc Ticks) []Ticks) (bool, []StreamVerdict) {
	tc := n.TokenCycle()
	ok := true
	total := 0
	for _, m := range n.Masters {
		total += m.NH()
	}
	var out []StreamVerdict // stays nil without streams: encoders tell nil from empty
	if total > 0 {
		out = make([]StreamVerdict, 0, total)
	}
	for _, m := range n.Masters {
		rs := bounds(m, tc)
		for i, s := range m.High {
			v := StreamVerdict{Master: m.Name, Stream: s.Name, D: s.D, R: rs[i], OK: rs[i] <= s.D}
			if !v.OK {
				ok = false
			}
			out = append(out, v)
		}
	}
	return ok, out
}
