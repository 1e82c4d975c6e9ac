package experiments

import (
	"fmt"
	"math/rand"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/profibus"
	"profirt/internal/stats"
	"profirt/internal/timeunit"
	"profirt/internal/workload"
)

// msgParams returns the stream-set shape shared by E9–E11.
func msgParams(dispatcher ap.Policy) workload.StreamSetParams {
	p := workload.DefaultStreamSetParams()
	p.Masters = 2
	p.StreamsPerMaster = 4
	p.TTR = 4_000
	p.PeriodMin, p.PeriodMax = 80_000, 300_000
	p.DeadlineRatioMin = 0.9
	p.Dispatcher = dispatcher
	return p
}

// E9DMMessageRTA compares the paper-literal Eq. 16 with the revised
// conservative variant against simulation under DM dispatching.
func E9DMMessageRTA(cfg Config) []*stats.Table {
	t := stats.NewTable("E9: DM message RTA (Eq. 16) — literal vs revised vs simulation",
		"jitter", "streams", "literal violations", "revised violations", "max sim/revised", "mean revised/literal")
	t.Note = "a literal violation = simulated response above the paper's Eq. 16 bound (its optimistic corner cases)"
	jitters := []core.Ticks{0, 2_000}
	type trialResult struct {
		litViol, revViol, streams int
		maxRatio                  float64
		// rels holds every rev/lit ratio in stream order so the reducer
		// can fold the mean's sum in exactly the historical order (see
		// E2's trialResult).
		rels []float64
	}
	res := make([]trialResult, len(jitters)*cfg.Trials)
	rs := cfg.rows(t, len(jitters))
	forEachCellTrialReduced(cfg, "E9", len(jitters), func(ci, trial int, rng *rand.Rand) {
		r := &res[ci*cfg.Trials+trial]
		p := msgParams(ap.DM)
		p.MaxJitter = jitters[ci]
		net, sim := workload.StreamSet(rng, p)
		tc := net.TokenCycle()
		okRev, _ := memo.DMSchedulable(cfg.Cache, net, core.DMOptions{})
		if !okRev {
			return
		}
		simres, err := profibus.Simulate(sim)
		if err != nil {
			panic(err)
		}
		for mi, m := range net.Masters {
			lit := memo.DMResponseTimes(cfg.Cache, m.High, tc, core.DMOptions{Literal: true})
			rev := memo.DMResponseTimes(cfg.Cache, m.High, tc, core.DMOptions{
				BlockingFromLowPriority: m.LongestLow > 0,
			})
			for si := range m.High {
				st := simres.PerMaster[mi].PerStream[si]
				r.streams++
				if lit[si] != timeunit.MaxTicks && st.WorstResponse > lit[si] {
					r.litViol++
				}
				if rev[si] != timeunit.MaxTicks {
					if st.WorstResponse > rev[si] {
						r.revViol++
					}
					if ratio := float64(st.WorstResponse) / float64(rev[si]); ratio > r.maxRatio {
						r.maxRatio = ratio
					}
				}
				if lit[si] != timeunit.MaxTicks && rev[si] != timeunit.MaxTicks && lit[si] > 0 {
					r.rels = append(r.rels, float64(rev[si])/float64(lit[si]))
				}
			}
		}
	}, func(ci int) {
		litViol, revViol, streams, cmp := 0, 0, 0, 0
		maxRatio, sumRel := 0.0, 0.0
		for _, r := range res[ci*cfg.Trials : (ci+1)*cfg.Trials] {
			litViol += r.litViol
			revViol += r.revViol
			streams += r.streams
			if r.maxRatio > maxRatio {
				maxRatio = r.maxRatio
			}
			for _, rel := range r.rels {
				sumRel += rel
				cmp++
			}
		}
		meanRel := 0.0
		if cmp > 0 {
			meanRel = sumRel / float64(cmp)
		}
		rs.Emit(ci, jitters[ci], streams, litViol, revViol,
			fmt.Sprintf("%.3f", maxRatio), fmt.Sprintf("%.3f", meanRel))
	})
	return []*stats.Table{t}
}

// E10EDFMessageRTA validates Eqs. 17–18 against simulation under EDF
// dispatching, and quantifies the gain from the refined T_cycle.
func E10EDFMessageRTA(cfg Config) []*stats.Table {
	t := stats.NewTable("E10: EDF message RTA (Eqs. 17–18) vs simulation + refined T_cycle ablation",
		"jitter", "streams", "violations", "max sim/bound", "mean refined/literal bound")
	jitters := []core.Ticks{0, 2_000}
	type trialResult struct {
		violations, streams int
		maxRatio            float64
		// rels holds every refined/literal-bound ratio in stream order
		// (historical fold order; see E2's trialResult).
		rels []float64
	}
	res := make([]trialResult, len(jitters)*cfg.Trials)
	rs := cfg.rows(t, len(jitters))
	forEachCellTrialReduced(cfg, "E10", len(jitters), func(ci, trial int, rng *rand.Rand) {
		r := &res[ci*cfg.Trials+trial]
		p := msgParams(ap.EDF)
		p.MaxJitter = jitters[ci]
		p.LowPriorityLoad = true
		net, sim := workload.StreamSet(rng, p)
		ok, verdicts := memo.EDFSchedulableNet(cfg.Cache, net, core.EDFOptions{})
		if !ok {
			return
		}
		simres, err := profibus.Simulate(sim)
		if err != nil {
			panic(err)
		}
		// Refined-T_cycle ablation: recompute bounds with the
		// tighter rotation bound.
		tcRef := net.RefinedTokenCycle()
		vi := 0
		for mi, m := range net.Masters {
			ref := memo.EDFResponseTimes(cfg.Cache, m.High, tcRef, core.EDFOptions{
				BlockingFromLowPriority: m.LongestLow > 0,
			})
			for si := range m.High {
				st := simres.PerMaster[mi].PerStream[si]
				bound := verdicts[vi].R
				vi++
				r.streams++
				if st.WorstResponse > bound {
					r.violations++
				}
				if ratio := float64(st.WorstResponse) / float64(bound); ratio > r.maxRatio {
					r.maxRatio = ratio
				}
				if ref[si] != timeunit.MaxTicks && bound > 0 {
					r.rels = append(r.rels, float64(ref[si])/float64(bound))
				}
			}
		}
	}, func(ci int) {
		violations, streams, cmp := 0, 0, 0
		maxRatio, sumRel := 0.0, 0.0
		for _, r := range res[ci*cfg.Trials : (ci+1)*cfg.Trials] {
			violations += r.violations
			streams += r.streams
			if r.maxRatio > maxRatio {
				maxRatio = r.maxRatio
			}
			for _, rel := range r.rels {
				sumRel += rel
				cmp++
			}
		}
		meanRel := 0.0
		if cmp > 0 {
			meanRel = sumRel / float64(cmp)
		}
		rs.Emit(ci, jitters[ci], streams, violations,
			fmt.Sprintf("%.3f", maxRatio), fmt.Sprintf("%.3f", meanRel))
	})
	return []*stats.Table{t}
}

// E11PolicyComparison reproduces the paper's headline conclusion: as
// deadlines tighten, priority-based AP dispatching (DM/EDF) keeps
// stream sets schedulable long after FCFS gives up, and the simulation
// agrees (fewer misses).
func E11PolicyComparison(cfg Config) []*stats.Table {
	t := stats.NewTable("E11: schedulable fraction as deadlines tighten (headline claim)",
		"deadline scale", "FCFS Eq.11", "DM Eq.16(rev)", "EDF Eq.17/18",
		"sim miss-free FCFS", "sim miss-free DM", "sim miss-free EDF")
	scales := []float64{1.0, 0.6, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1}
	if cfg.Quick {
		scales = []float64{1.0, 0.4, 0.2}
	}
	p := msgParams(ap.FCFS)
	p.StreamsPerMaster = 4
	// Pre-draw the base configs from a dedicated RNG so each scale sees
	// identical traffic; the scale cells then only read them
	// (ScaleDeadlines and WithDispatcher copy before mutating).
	rng := cellRNG(cfg, "E11/base", 0)
	base := make([]profibus.Config, cfg.Trials)
	for i := range base {
		_, base[i] = workload.StreamSet(rng, p)
	}
	rs := cfg.rows(t, len(scales))
	forEachCell(cfg, "E11", len(scales), func(ci int, _ *rand.Rand) {
		scale := scales[ci]
		var accF, accD, accE, okF, okD, okE int
		for _, b := range base {
			sim := workload.ScaleDeadlines(b, scale)
			net := profibus.Network(sim)
			if ok, _ := core.FCFSSchedulable(net); ok {
				accF++
			}
			if ok, _ := memo.DMSchedulable(cfg.Cache, net, core.DMOptions{}); ok {
				accD++
			}
			if ok, _ := memo.EDFSchedulableNet(cfg.Cache, net, core.EDFOptions{}); ok {
				accE++
			}
			for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
				res, err := profibus.Simulate(workload.WithDispatcher(sim, pol))
				if err != nil {
					panic(err)
				}
				if !res.AnyMiss() {
					switch pol {
					case ap.FCFS:
						okF++
					case ap.DM:
						okD++
					case ap.EDF:
						okE++
					}
				}
			}
		}
		n := len(base)
		rs.Emit(ci, fmt.Sprintf("%.2f", scale),
			stats.Ratio{K: accF, N: n}, stats.Ratio{K: accD, N: n}, stats.Ratio{K: accE, N: n},
			stats.Ratio{K: okF, N: n}, stats.Ratio{K: okD, N: n}, stats.Ratio{K: okE, N: n})
	})
	return []*stats.Table{t}
}

// E12JitterEndToEnd sweeps release jitter on a reference master and
// reports the DM/EDF bound growth plus an end-to-end decomposition
// (Sec. 4.2) for the tightest stream.
func E12JitterEndToEnd(cfg Config) []*stats.Table {
	t := stats.NewTable("E12: release-jitter impact on Eq. 16/17 bounds",
		"J/T", "DM bound (tightest)", "DM bound (loosest)", "EDF bound (tightest)", "EDF bound (loosest)")
	const tc = 2_500
	base := []core.Stream{
		{Name: "fast", Ch: 300, D: 20_000, T: 40_000},
		{Name: "mid", Ch: 300, D: 60_000, T: 120_000},
		{Name: "slow", Ch: 300, D: 150_000, T: 300_000},
	}
	fractions := []float64{0, 0.1, 0.2, 0.3, 0.5}
	if cfg.Quick {
		fractions = []float64{0, 0.2, 0.5}
	}
	rs := cfg.rows(t, len(fractions))
	forEachCell(cfg, "E12", len(fractions), func(ci int, _ *rand.Rand) {
		f := fractions[ci]
		streams := append([]core.Stream(nil), base...)
		for i := range streams {
			streams[i].J = core.Ticks(f * float64(streams[i].T))
		}
		dm := memo.DMResponseTimes(cfg.Cache, streams, tc, core.DMOptions{})
		edf := memo.EDFResponseTimes(cfg.Cache, streams, tc, core.EDFOptions{})
		rs.Emit(ci, fmt.Sprintf("%.1f", f), dm[0], dm[2], edf[0], edf[2])
	})

	t2 := stats.NewTable("E12b: end-to-end decomposition E = g + Q + C + d (tightest stream, J/T = 0.2)",
		"component", "bit times")
	streams := append([]core.Stream(nil), base...)
	for i := range streams {
		streams[i].J = core.Ticks(0.2 * float64(streams[i].T))
	}
	dm := memo.DMResponseTimes(cfg.Cache, streams, tc, core.DMOptions{})
	gen := streams[0].J // g doubles as the release-jitter bound (Sec. 4.1)
	e := core.Compose(gen, dm[0], streams[0].Ch, 500)
	t2.AddRow("generation g", e.Generation)
	t2.AddRow("queuing Q", e.Queuing)
	t2.AddRow("cycle C", e.Cycle)
	t2.AddRow("delivery d", e.Delivery)
	t2.AddRow("total E", e.Total())
	return []*stats.Table{t, t2}
}
