package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the benchmark's workloads and metrics,
// including each metric's unit, direction and regression bound.
type benchSpec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec)
	return spec, err
}

// compareFiles prints, per workload and metric, each side's median
// and quartiles and a verdict on the change (see verdict).
func compareFiles(w io.Writer, spec benchSpec, parentPath, changePath string) error {
	var parent, change collection
	if err := readJSON(parentPath, &parent); err != nil {
		return err
	}
	if err := readJSON(changePath, &change); err != nil {
		return err
	}
	fmt.Fprintf(w, "parent %s (%d CPUs), change %s (%d CPUs)\n", orUnknown(parent.Commit), parent.NumCPU, orUnknown(change.Commit), change.NumCPU)
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict")
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			p, c := bySeed(parent, wl.Name, m.Name), bySeed(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pv, cv := values(p), values(c)
			lower := m.Better != "higher"
			wins, losses, pairs := pairWins(p, c, lower)
			v := shift(pv, cv, wins, losses, pairs, lower)
			if m.Bound != nil {
				v = verdict(pv, cv, wins, pairs, lower, *m.Bound, spreadExempt[m.Name])
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", m.Name, m.Unit,
				describe(pv), describe(cv), relChange(median(pv), median(cv)), wins, pairs, v)
		}
		tw.Flush()
	}
	return nil
}

func orUnknown(s string) string {
	if s == "" {
		return "(unknown commit)"
	}
	return s
}

// relChange is the change from p to c as a signed percentage of p, or
// "-" when p is 0, as a hit ratio of a workload without hits is.
func relChange(p, c float64) string {
	if p == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(c-p)/math.Abs(p))
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// bySeed maps seed to metric value for one workload's runs. A run's
// diagnostics carry every metric it measured, including those its
// result line did not print.
func bySeed(c collection, workload, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range c.Runs {
		if r.Workload != workload {
			continue
		}
		var d struct{ Metrics map[string]float64 }
		if json.Unmarshal(r.Detail, &d) == nil {
			if v, ok := d.Metrics[metric]; ok {
				out[r.Seed] = v
				continue
			}
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out[r.Seed] = v.Value
		}
	}
	return out
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// pairWins pairs the two sides' runs by seed and counts the pairs in
// which the change reads better and worse; ties count for neither.
func pairWins(parent, change map[int64]float64, lower bool) (wins, losses, pairs int) {
	for s, p := range parent {
		c, ok := change[s]
		if !ok {
			continue
		}
		pairs++
		switch {
		case better(c, p, lower):
			wins++
		case better(p, c, lower):
			losses++
		}
	}
	return wins, losses, pairs
}

// shift judges a metric without a bound by the improvement rule alone,
// applied in both directions: "improved" or "regressed" when the change
// wins (or loses) at least 9 of 10 pairs and the medians differ by more
// than the parent's interquartile range, "-" otherwise.
func shift(parent, change []float64, wins, losses, pairs int, lower bool) string {
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if pairs == 0 || math.Abs(mc-mp) <= q3-q1 {
		return "-"
	}
	switch {
	case 10*wins >= 9*pairs && better(mc, mp, lower):
		return "improved"
	case 10*losses >= 9*pairs && better(mp, mc, lower):
		return "regressed"
	}
	return "-"
}

func better(a, b float64, lower bool) bool {
	if lower {
		return a < b
	}
	return a > b
}

// spreadExempt names the gated metrics whose run-to-run spread is not
// held to their bound, as the benchmark format exempts setup_s: a
// process start of a few milliseconds follows the host's speed from run
// to run by more than any bound BENCHMARK.json allows (see README.md),
// so it is judged by its median alone.
var spreadExempt = map[string]bool{"setup_s": true}

// verdict judges one metric on one workload:
//   - improved: the change wins at least 9 of 10 pairs and its median
//     beats the parent's by more than the parent's interquartile range;
//   - unresolved: either side's spread (IQR over median) is wider than
//     the bound, unless every change run beats every parent run or the
//     metric is spread-exempt;
//   - no worse: the change's median is within the bound of the parent's;
//   - worse: otherwise.
func verdict(parent, change []float64, wins, pairs int, lower bool, bound float64, exempt bool) string {
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if pairs > 0 && 10*wins >= 9*pairs && better(mc, mp, lower) && math.Abs(mc-mp) > q3-q1 {
		return "improved"
	}
	if !exempt && math.Max(spread(parent), spread(change)) > bound {
		if allBetter(change, parent, lower) {
			return "no worse"
		}
		return "unresolved"
	}
	loss := (mc - mp) / math.Abs(mp)
	if !lower {
		loss = -loss
	}
	if loss <= bound {
		return "no worse"
	}
	return "worse"
}

// allBetter reports whether every value of a beats every value of b.
func allBetter(a, b []float64, lower bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y, lower) {
				return false
			}
		}
	}
	return true
}
