package experiments

import (
	"fmt"
	"math/rand"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/holistic"
	"profirt/internal/sched"
	"profirt/internal/stats"
)

// e13Config builds the reference transaction system for E13: two
// masters whose host load and bus traffic are coupled through the
// holistic fixed point.
func e13Config(dispatcher ap.Policy, hostScale float64) holistic.Config {
	tx := func(name string, cGen, period, ch, dMsg, delivery, deadline core.Ticks) holistic.Transaction {
		c := core.Ticks(float64(cGen) * hostScale)
		if c < 1 {
			c = 1
		}
		d := core.Ticks(float64(delivery) * hostScale)
		if d < 1 {
			d = 1
		}
		return holistic.Transaction{
			Name: name,
			Generation: sched.Task{
				Name: name + ".gen", C: c, D: period / 2, T: period,
			},
			Stream:   core.Stream{Name: name + ".msg", Ch: ch, D: dMsg},
			Delivery: d,
			Deadline: deadline,
		}
	}
	return holistic.Config{
		TTR:       1_000,
		TokenPass: 70,
		Masters: []holistic.MasterSpec{
			{
				Name:       "plc",
				Dispatcher: dispatcher,
				Transactions: []holistic.Transaction{
					tx("pressure", 400, 20_000, 400, 10_000, 200, 16_000),
					tx("valve", 600, 40_000, 450, 20_000, 300, 30_000),
					tx("logging", 900, 80_000, 500, 60_000, 500, 70_000),
				},
			},
			{
				Name:       "drive",
				Dispatcher: dispatcher,
				LongestLow: 600,
				Transactions: []holistic.Transaction{
					tx("axis", 500, 30_000, 500, 15_000, 250, 24_000),
				},
			},
		},
	}
}

// E13Holistic characterises the coupled end-to-end analysis of
// Secs. 4.1–4.2: how the E = g + Q + C + d breakdown of the tightest
// transaction shifts as host load scales, per dispatcher, and how many
// fixed-point rounds the coupling needs.
func E13Holistic(cfg Config) []*stats.Table {
	t := stats.NewTable("E13: holistic end-to-end analysis (Secs. 4.1–4.2)",
		"dispatcher", "host scale", "iterations", "g", "Q", "C", "d", "E total", "schedulable")
	scales := []float64{1, 4, 8, 12}
	if cfg.Quick {
		scales = []float64{1, 8}
	}
	type cell struct {
		pol   ap.Policy
		scale float64
	}
	var cells []cell
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		for _, sc := range scales {
			cells = append(cells, cell{pol, sc})
		}
	}
	rs := cfg.rows(t, len(cells))
	forEachCell(cfg, "E13", len(cells), func(ci int, _ *rand.Rand) {
		c := cells[ci]
		res, err := holistic.Analyze(e13Config(c.pol, c.scale), cfg.Cache)
		if err != nil {
			panic(err)
		}
		b := res.Transactions[0].Breakdown // tightest: pressure
		rs.Emit(ci, c.pol.String(), fmt.Sprintf("%.0fx", c.scale), res.Iterations,
			b.Generation, b.Queuing, b.Cycle, b.Delivery,
			b.Total(), res.Schedulable)
	})
	t.Note = "g grows with host load, which feeds message jitter (Sec. 4.1) and delivery jitter; the fixed point propagates all couplings"
	return []*stats.Table{t}
}
