package sched

import (
	"math"
	"testing"

	"profirt/internal/timeunit"
)

func mkTask(name string, c, d, t Ticks) Task {
	return Task{Name: name, C: c, D: d, T: t}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		task Task
		ok   bool
	}{
		{mkTask("ok", 1, 5, 5), true},
		{mkTask("zeroC", 0, 5, 5), false},
		{mkTask("negC", -1, 5, 5), false},
		{mkTask("zeroT", 1, 5, 0), false},
		{mkTask("zeroD", 1, 0, 5), false},
		{mkTask("CgtT", 6, 5, 5), false},
		{Task{Name: "negJ", C: 1, D: 5, T: 5, J: -1}, false},
		{Task{Name: "negB", C: 1, D: 5, T: 5, B: -1}, false},
		{Task{Name: "jitter", C: 1, D: 5, T: 5, J: 2}, true},
	}
	for _, c := range cases {
		err := c.task.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.task.Name, err, c.ok)
		}
	}
}

func TestTaskSetValidate(t *testing.T) {
	if err := (TaskSet{}).Validate(); err == nil {
		t.Error("empty set should be invalid")
	}
	ts := TaskSet{mkTask("a", 1, 5, 5), mkTask("b", 0, 5, 5)}
	if err := ts.Validate(); err == nil {
		t.Error("set with bad task should be invalid")
	}
}

func TestUtilization(t *testing.T) {
	ts := TaskSet{mkTask("a", 1, 4, 4), mkTask("b", 2, 8, 8)}
	if got := ts.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization = %g, want 0.5", got)
	}
}

func TestSortRMDM(t *testing.T) {
	ts := TaskSet{
		{Name: "long", C: 1, D: 9, T: 20},
		{Name: "short", C: 1, D: 10, T: 5},
		{Name: "mid", C: 1, D: 3, T: 10},
	}
	rm := SortRM(ts)
	if rm[0].Name != "short" || rm[1].Name != "mid" || rm[2].Name != "long" {
		t.Errorf("SortRM order wrong: %v %v %v", rm[0].Name, rm[1].Name, rm[2].Name)
	}
	dm := SortDM(ts)
	if dm[0].Name != "mid" || dm[1].Name != "long" || dm[2].Name != "short" {
		t.Errorf("SortDM order wrong: %v %v %v", dm[0].Name, dm[1].Name, dm[2].Name)
	}
	// original untouched
	if ts[0].Name != "long" {
		t.Error("sort must not mutate input")
	}
}

func TestSortStability(t *testing.T) {
	ts := TaskSet{
		{Name: "a", C: 1, D: 5, T: 10},
		{Name: "b", C: 1, D: 5, T: 10},
		{Name: "c", C: 1, D: 5, T: 10},
	}
	dm := SortDM(ts)
	if dm[0].Name != "a" || dm[1].Name != "b" || dm[2].Name != "c" {
		t.Error("stable sort must preserve input order on ties")
	}
}

func TestHyperperiodAndMaxC(t *testing.T) {
	ts := TaskSet{mkTask("a", 2, 4, 4), mkTask("b", 3, 6, 6)}
	if got := ts.Hyperperiod(); got != 12 {
		t.Errorf("Hyperperiod = %d, want 12", got)
	}
	if got := ts.MaxC(); got != 3 {
		t.Errorf("MaxC = %d, want 3", got)
	}
	if got := (TaskSet{}).MaxC(); got != 0 {
		t.Errorf("empty MaxC = %d, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	ts := TaskSet{mkTask("a", 1, 4, 4)}
	cp := ts.Clone()
	cp[0].C = 99
	if ts[0].C != 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestPeriods(t *testing.T) {
	ts := TaskSet{mkTask("a", 1, 4, 4), mkTask("b", 1, 6, 6)}
	ps := ts.Periods()
	if len(ps) != 2 || ps[0] != 4 || ps[1] != 6 {
		t.Errorf("Periods = %v", ps)
	}
}

func TestDefaultHorizonSaturation(t *testing.T) {
	huge := TaskSet{
		mkTask("a", 1, timeunit.MaxTicks/2, timeunit.MaxTicks/2),
		mkTask("b", 1, timeunit.MaxTicks/2-1, timeunit.MaxTicks/2-1),
	}
	h := defaultHorizon(huge)
	if h != Ticks(1)<<40 {
		t.Errorf("defaultHorizon should cap at 1<<40, got %d", h)
	}
}
