package experiments

import (
	"fmt"
	"math/rand"

	"profirt/internal/cpusim"
	"profirt/internal/sched"
	"profirt/internal/stats"
	"profirt/internal/timeunit"
	"profirt/internal/workload"
)

// uGrid returns the utilisation sweep for Section 2 experiments.
func uGrid(quick bool) []float64 {
	if quick {
		return []float64{0.5, 0.8}
	}
	return []float64{0.3, 0.5, 0.7, 0.8, 0.9}
}

func nGrid(quick bool) []int {
	if quick {
		return []int{4}
	}
	return []int{4, 8, 12}
}

// nuCell is one (n, U) grid cell shared by the Section 2 sweeps.
type nuCell struct {
	n int
	u float64
}

// nuGrid enumerates the (n, U) grid in row-major order.
func nuGrid(quick bool) []nuCell {
	var cells []nuCell
	for _, n := range nGrid(quick) {
		for _, u := range uGrid(quick) {
			cells = append(cells, nuCell{n, u})
		}
	}
	return cells
}

// The drivers stream rows: each grid cell's row is handed to a
// stats.RowStreamer (cfg.rows) the moment the cell's reduction
// completes, and the streamer releases rows in grid order — so a
// consumer (a full-size cmd/experiments run, the campaign CLI) sees
// finished rows while later cells still compute, and the assembled
// table is byte-identical to the historical buffered assembly.

// simWorst simulates a priority-ordered set under the policy with both
// a synchronous and a random-offset pattern and returns the per-task
// worst observed responses.
func simWorst(ts sched.TaskSet, pol cpusim.Policy, rng *rand.Rand) []sched.Ticks {
	worst := make([]sched.Ticks, len(ts))
	patterns := [][]sched.Ticks{nil}
	offs := make([]sched.Ticks, len(ts))
	for i := range offs {
		offs[i] = sched.Ticks(rng.Intn(50))
	}
	patterns = append(patterns, offs)
	for _, off := range patterns {
		res, err := cpusim.Run(ts, cpusim.Options{Policy: pol, Offsets: off, Horizon: 1 << 15})
		if err != nil {
			panic(err)
		}
		for i, st := range res.PerTask {
			if st.WorstResponse > worst[i] {
				worst[i] = st.WorstResponse
			}
		}
	}
	return worst
}

// E1FixedPriorityPreemptive validates the Joseph–Pandya RTA: across a
// (n, U) grid, the analytic bound must dominate the simulated worst
// case, and the bound should be attained at the critical instant.
func E1FixedPriorityPreemptive(cfg Config) []*stats.Table {
	t := stats.NewTable("E1: preemptive FP RTA vs simulation (DM priorities)",
		"n", "U", "sched. ratio", "max sim/bound", "tight tasks", "violations")
	t.Note = "bound = Joseph–Pandya response-time analysis; sim = cpusim over synchronous + random offsets"
	cells := nuGrid(cfg.Quick)
	type trialResult struct {
		schedulable              bool
		violations, tight, tasks int
		maxRatio                 float64
	}
	res := make([]trialResult, len(cells)*cfg.Trials)
	rs := cfg.rows(t, len(cells))
	forEachCellTrialReduced(cfg, "E1", len(cells), func(ci, trial int, rng *rand.Rand) {
		c := cells[ci]
		r := &res[ci*cfg.Trials+trial]
		ts := sched.SortDM(workload.TaskSet(rng, workload.DefaultTaskSetParams(c.n, c.u)))
		ok, bounds := sched.FPSchedulable(ts, sched.FPOptions{Preemptive: true})
		if !ok {
			return
		}
		r.schedulable = true
		worst := simWorst(ts, cpusim.FPPreemptive, rng)
		for i := range ts {
			r.tasks++
			if worst[i] > bounds[i] {
				r.violations++
			}
			if worst[i] == bounds[i] {
				r.tight++
			}
			if ratio := float64(worst[i]) / float64(bounds[i]); ratio > r.maxRatio {
				r.maxRatio = ratio
			}
		}
	}, func(ci int) {
		c := cells[ci]
		var schedulable, violations, tight, tasks int
		maxRatio := 0.0
		for _, r := range res[ci*cfg.Trials : (ci+1)*cfg.Trials] {
			if r.schedulable {
				schedulable++
			}
			violations += r.violations
			tight += r.tight
			tasks += r.tasks
			if r.maxRatio > maxRatio {
				maxRatio = r.maxRatio
			}
		}
		rs.Emit(ci, c.n, fmt.Sprintf("%.1f", c.u),
			stats.Ratio{K: schedulable, N: cfg.Trials},
			fmt.Sprintf("%.3f", maxRatio),
			fmt.Sprintf("%d/%d", tight, tasks),
			violations)
	})
	return []*stats.Table{t}
}

// E2FixedPriorityNonPreemptive contrasts the paper-literal Eq. 1 with
// the revised sound recurrence: the literal form can be beaten by the
// simulator (boundary releases), the revised form never.
func E2FixedPriorityNonPreemptive(cfg Config) []*stats.Table {
	t := stats.NewTable("E2: non-preemptive FP RTA — literal Eq. 1 vs revised vs simulation",
		"n", "U", "literal violations", "revised violations", "max sim/revised", "mean revised/literal")
	t.Note = "a literal violation means the simulator exceeded the paper's Eq. 1 bound (the pre-2007 optimism)"
	cells := nuGrid(cfg.Quick)
	type trialResult struct {
		litViol, revViol int
		maxRatio         float64
		// rels holds every rev/lit ratio in task order so the reducer
		// can fold the mean's sum in exactly the historical order
		// (float addition is order-sensitive; tables must stay
		// byte-identical).
		rels []float64
	}
	res := make([]trialResult, len(cells)*cfg.Trials)
	rs := cfg.rows(t, len(cells))
	forEachCellTrialReduced(cfg, "E2", len(cells), func(ci, trial int, rng *rand.Rand) {
		c := cells[ci]
		r := &res[ci*cfg.Trials+trial]
		p := workload.DefaultTaskSetParams(c.n, c.u)
		p.PeriodMin, p.PeriodMax = 20, 600 // short periods make boundary ties likely
		ts := sched.SortDM(workload.TaskSet(rng, p))
		lit := sched.ResponseTimesFP(ts, sched.FPOptions{LiteralPaperRecurrence: true})
		rev := sched.ResponseTimesFP(ts, sched.FPOptions{})
		worst := simWorst(ts, cpusim.FPNonPreemptive, rng)
		for i := range ts {
			if lit[i] != timeunit.MaxTicks && worst[i] > lit[i] {
				r.litViol++
			}
			if rev[i] != timeunit.MaxTicks {
				if worst[i] > rev[i] {
					r.revViol++
				}
				if ratio := float64(worst[i]) / float64(rev[i]); ratio > r.maxRatio {
					r.maxRatio = ratio
				}
			}
			if lit[i] != timeunit.MaxTicks && rev[i] != timeunit.MaxTicks && lit[i] > 0 {
				r.rels = append(r.rels, float64(rev[i])/float64(lit[i]))
			}
		}
	}, func(ci int) {
		c := cells[ci]
		var litViol, revViol, cmpCount int
		maxRatio, sumRel := 0.0, 0.0
		for _, r := range res[ci*cfg.Trials : (ci+1)*cfg.Trials] {
			litViol += r.litViol
			revViol += r.revViol
			if r.maxRatio > maxRatio {
				maxRatio = r.maxRatio
			}
			for _, rel := range r.rels {
				sumRel += rel
				cmpCount++
			}
		}
		meanRel := 0.0
		if cmpCount > 0 {
			meanRel = sumRel / float64(cmpCount)
		}
		rs.Emit(ci, c.n, fmt.Sprintf("%.1f", c.u), litViol, revViol,
			fmt.Sprintf("%.3f", maxRatio), fmt.Sprintf("%.3f", meanRel))
	})
	return []*stats.Table{t}
}

// E3EDFDemand validates the Eq. 3 processor-demand test: sets it
// accepts never miss in simulation; its acceptance ratio falls with U
// when deadlines are constrained.
func E3EDFDemand(cfg Config) []*stats.Table {
	t := stats.NewTable("E3: EDF processor-demand test (Eq. 3) vs simulation",
		"U", "D/T ratio", "accepted", "sim misses in accepted", "mean checked points")
	ratios := []float64{1.0, 0.7}
	if cfg.Quick {
		ratios = []float64{0.7}
	}
	type cell struct {
		dr, u float64
	}
	var cells []cell
	for _, dr := range ratios {
		for _, u := range uGrid(cfg.Quick) {
			cells = append(cells, cell{dr, u})
		}
	}
	type trialResult struct {
		accepted, miss bool
		points         int
	}
	res := make([]trialResult, len(cells)*cfg.Trials)
	rs := cfg.rows(t, len(cells))
	forEachCellTrialReduced(cfg, "E3", len(cells), func(ci, trial int, rng *rand.Rand) {
		c := cells[ci]
		r := &res[ci*cfg.Trials+trial]
		p := workload.DefaultTaskSetParams(5, c.u)
		p.DeadlineRatioMin = c.dr
		ts := workload.TaskSet(rng, p)
		rep := sched.EDFFeasiblePreemptive(ts)
		if !rep.Feasible {
			return
		}
		r.accepted = true
		r.points = rep.Checked
		sim, err := cpusim.Run(ts, cpusim.Options{Policy: cpusim.EDFPreemptive, Horizon: 1 << 15})
		if err != nil {
			panic(err)
		}
		r.miss = sim.AnyMiss()
	}, func(ci int) {
		c := cells[ci]
		accepted, misses, points := 0, 0, 0
		for _, r := range res[ci*cfg.Trials : (ci+1)*cfg.Trials] {
			if !r.accepted {
				continue
			}
			accepted++
			points += r.points
			if r.miss {
				misses++
			}
		}
		mean := 0.0
		if accepted > 0 {
			mean = float64(points) / float64(accepted)
		}
		rs.Emit(ci, fmt.Sprintf("%.1f", c.u), fmt.Sprintf("%.1f", c.dr),
			stats.Ratio{K: accepted, N: cfg.Trials}, misses, fmt.Sprintf("%.1f", mean))
	})
	return []*stats.Table{t}
}

// E4NonPreemptiveEDFTests quantifies the pessimism George et al. remove
// from the Zheng–Shin test: acceptance ratios across a D/T sweep.
func E4NonPreemptiveEDFTests(cfg Config) []*stats.Table {
	t := stats.NewTable("E4: non-preemptive EDF feasibility — Eq. 4 (Zheng–Shin) vs Eq. 5 (George)",
		"D/T min", "U", "ZS accepts", "George accepts", "George-only", "disagreements vs sim")
	ratios := []float64{0.4, 0.6, 0.8, 1.0}
	if cfg.Quick {
		ratios = []float64{0.6, 1.0}
	}
	type cell struct {
		dr, u float64
	}
	var cells []cell
	for _, dr := range ratios {
		for _, u := range []float64{0.5, 0.7} {
			cells = append(cells, cell{dr, u})
		}
	}
	type trialResult struct {
		zs, g, miss bool
	}
	res := make([]trialResult, len(cells)*cfg.Trials)
	rs := cfg.rows(t, len(cells))
	forEachCellTrialReduced(cfg, "E4", len(cells), func(ci, trial int, rng *rand.Rand) {
		c := cells[ci]
		r := &res[ci*cfg.Trials+trial]
		p := workload.DefaultTaskSetParams(5, c.u)
		p.DeadlineRatioMin = c.dr
		p.PeriodMin, p.PeriodMax = 50, 2_000
		ts := workload.TaskSet(rng, p)
		r.zs = sched.EDFFeasibleNonPreemptiveZS(ts).Feasible
		r.g = sched.EDFFeasibleNonPreemptiveGeorge(ts).Feasible
		if r.g {
			sim, err := cpusim.Run(ts, cpusim.Options{Policy: cpusim.EDFNonPreemptive, Horizon: 1 << 15})
			if err != nil {
				panic(err)
			}
			r.miss = sim.AnyMiss()
		}
	}, func(ci int) {
		c := cells[ci]
		zsAcc, gAcc, gOnly, simViol := 0, 0, 0, 0
		for _, r := range res[ci*cfg.Trials : (ci+1)*cfg.Trials] {
			if r.zs {
				zsAcc++
			}
			if r.g {
				gAcc++
				if r.miss {
					simViol++
				}
			}
			if r.g && !r.zs {
				gOnly++
			}
		}
		rs.Emit(ci, fmt.Sprintf("%.1f", c.dr), fmt.Sprintf("%.1f", c.u),
			stats.Ratio{K: zsAcc, N: cfg.Trials},
			stats.Ratio{K: gAcc, N: cfg.Trials},
			gOnly, simViol)
	})
	return []*stats.Table{t}
}

// E5EDFResponseTimes validates Spuri's preemptive and George's
// non-preemptive EDF response-time analyses against simulation.
func E5EDFResponseTimes(cfg Config) []*stats.Table {
	t := stats.NewTable("E5: EDF response-time analyses (Eqs. 6–10) vs simulation",
		"mode", "U", "violations", "max sim/bound", "mean sim/bound")
	type cell struct {
		mode string
		u    float64
	}
	var cells []cell
	for _, mode := range []string{"preemptive", "non-preemptive"} {
		for _, u := range uGrid(cfg.Quick) {
			cells = append(cells, cell{mode, u})
		}
	}
	type trialResult struct {
		violations int
		// ratios holds every finite sim/bound ratio in task order (see
		// E2's trialResult for why the reducer folds them in order).
		ratios []float64
	}
	res := make([]trialResult, len(cells)*cfg.Trials)
	rs := cfg.rows(t, len(cells))
	forEachCellTrialReduced(cfg, "E5", len(cells), func(ci, trial int, rng *rand.Rand) {
		c := cells[ci]
		r := &res[ci*cfg.Trials+trial]
		p := workload.DefaultTaskSetParams(4, c.u)
		p.DeadlineRatioMin = 0.8
		p.PeriodMin, p.PeriodMax = 50, 1_500
		ts := workload.TaskSet(rng, p)
		var bounds []sched.Ticks
		var pol cpusim.Policy
		if c.mode == "preemptive" {
			bounds = sched.ResponseTimesEDFPreemptive(ts)
			pol = cpusim.EDFPreemptive
		} else {
			bounds = sched.ResponseTimesEDFNonPreemptive(ts)
			pol = cpusim.EDFNonPreemptive
		}
		worst := simWorst(ts, pol, rng)
		for i := range ts {
			if bounds[i] == timeunit.MaxTicks {
				continue
			}
			if worst[i] > bounds[i] {
				r.violations++
			}
			r.ratios = append(r.ratios, float64(worst[i])/float64(bounds[i]))
		}
	}, func(ci int) {
		c := cells[ci]
		violations, count := 0, 0
		maxR, sumR := 0.0, 0.0
		for _, r := range res[ci*cfg.Trials : (ci+1)*cfg.Trials] {
			violations += r.violations
			for _, ratio := range r.ratios {
				count++
				if ratio > maxR {
					maxR = ratio
				}
				sumR += ratio
			}
		}
		mean := 0.0
		if count > 0 {
			mean = sumR / float64(count)
		}
		rs.Emit(ci, c.mode, fmt.Sprintf("%.1f", c.u), violations,
			fmt.Sprintf("%.3f", maxR), fmt.Sprintf("%.3f", mean))
	})
	return []*stats.Table{t}
}
