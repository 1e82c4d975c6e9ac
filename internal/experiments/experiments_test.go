package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"profirt/internal/ap"
	"profirt/internal/holistic"
	"profirt/internal/stats"
	"profirt/internal/timeunit"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("experiments = %d, want 13", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Anchor == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("E7"); !ok {
		t.Error("ByID(E7) not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should not exist")
	}
}

func TestRatioCell(t *testing.T) {
	if got := ratioCell(1, 0); got != "n/a" {
		t.Errorf("ratioCell div-by-zero = %q", got)
	}
	if got := ratioCell(1, 2); got != "0.500" {
		t.Errorf("ratioCell = %q", got)
	}
}

// Run every experiment in quick mode: they must produce non-empty,
// well-formed tables without panicking, and the soundness columns must
// report zero violations for the revised/sound analyses.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	cfg := QuickConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.NumRows() == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				if len(tb.Header) == 0 {
					t.Errorf("table %q has no header", tb.Title)
				}
				// Every row must have the header's arity.
				for i := 0; i < tb.NumRows(); i++ {
					if got := len(tb.Row(i)); got != len(tb.Header) {
						t.Errorf("table %q row %d has %d cells, want %d",
							tb.Title, i, got, len(tb.Header))
					}
				}
			}
			checkSoundness(t, e.ID, tables)
		})
	}
}

// checkSoundness inspects the violation columns of the experiments that
// assert sound bounds.
func checkSoundness(t *testing.T, id string, tables []*stats.Table) {
	column := map[string]string{
		"E1":  "violations",
		"E2":  "revised violations",
		"E5":  "violations",
		"E6":  "violations",
		"E7":  "violations",
		"E9":  "revised violations",
		"E10": "violations",
	}
	wantCol, ok := column[id]
	if !ok {
		return
	}
	tb := tables[0]
	idx := -1
	for i, h := range tb.Header {
		if h == wantCol {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("%s: column %q missing from %v", id, wantCol, tb.Header)
	}
	for i := 0; i < tb.NumRows(); i++ {
		if v := tb.Row(i)[idx]; v != "0" {
			t.Errorf("%s row %d: %s = %s, want 0 (soundness)", id, i, wantCol, v)
		}
	}
}

// The E11 headline shape: at the tightest deadline scale, DM and EDF
// must accept at least as many sets as FCFS.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := QuickConfig()
	cfg.Trials = 10
	tables := E11PolicyComparison(cfg)
	tb := tables[0]
	last := tb.Row(tb.NumRows() - 1)
	parse := func(s string) float64 {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			t.Fatalf("cannot parse ratio %q: %v", s, err)
		}
		return f
	}
	fcfs, dm, edf := parse(last[1]), parse(last[2]), parse(last[3])
	if dm < fcfs || edf < fcfs {
		t.Errorf("headline violated at tightest scale: FCFS=%.3f DM=%.3f EDF=%.3f", fcfs, dm, edf)
	}
}

// TestE13CompositionOriginAnchored checks the origin-anchored
// composition on every finite transaction of E13's system, at every
// full-size host scale and dispatcher: the message bound includes g,
// so E = MessageResponse + d and Q = MessageResponse − g − C.
func TestE13CompositionOriginAnchored(t *testing.T) {
	for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
		for _, scale := range []float64{1, 4, 8, 12} {
			res, err := holistic.Analyze(e13Config(pol, scale), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range res.Transactions {
				b, r := tr.Breakdown, tr.MessageResponse
				if b.Total() == timeunit.MaxTicks || r == timeunit.MaxTicks {
					continue
				}
				if b.Total() != r+b.Delivery || b.Queuing != r-b.Generation-b.Cycle {
					t.Errorf("%v %.0fx %s: %+v (E %v) does not compose from MessageResponse %v",
						pol, scale, tr.Name, b, b.Total(), r)
				}
			}
		}
	}
}

// TestE13OverloadedHostDivergesQuickly runs E13's system past host
// saturation (plc's host utilisation is 1.12 at 16x and 1.40 at 20x).
// logging's generation task diverges in the first round and its stream
// inherits the capped jitter core.JitterCap. Under EDF that unbounded
// jitter makes every plc message bound diverge, and holistic must say
// so without running the EDF kernel, which would enumerate offsets over
// a busy period of order JitterCap·T_cycle/T (over 20 s at 16x on a
// 2-CPU host). drive's host is not overloaded and stays finite.
func TestE13OverloadedHostDivergesQuickly(t *testing.T) {
	type outcome struct {
		res holistic.Result
		err error
	}
	for _, scale := range []float64{16, 20} {
		for _, pol := range []ap.Policy{ap.FCFS, ap.DM, ap.EDF} {
			done := make(chan outcome, 1)
			go func() {
				res, err := holistic.Analyze(e13Config(pol, scale), nil)
				done <- outcome{res, err}
			}()
			var res holistic.Result
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatal(o.err)
				}
				res = o.res
			case <-time.After(5 * time.Second):
				t.Fatalf("%v %.0fx: holistic analysis still running after 5 s", pol, scale)
			}
			for _, tr := range res.Transactions {
				e := tr.Breakdown.Total()
				switch {
				case tr.Master == "drive" && e == timeunit.MaxTicks:
					t.Errorf("%v %.0fx axis: E diverged on a host that is not overloaded", pol, scale)
				case tr.Name == "logging" && (e != timeunit.MaxTicks || tr.OK):
					t.Errorf("%v %.0fx logging: E = %v, want MaxTicks", pol, scale, e)
				case pol == ap.EDF && tr.Master == "plc" && (tr.MessageResponse != timeunit.MaxTicks || e != timeunit.MaxTicks):
					t.Errorf("EDF %.0fx %s: MessageResponse %v, E %v, want both MaxTicks", scale, tr.Name, tr.MessageResponse, e)
				}
			}
		}
	}
}
