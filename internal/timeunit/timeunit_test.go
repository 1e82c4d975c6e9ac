package timeunit

import (
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Ticks }{
		{0, 1, 0},
		{1, 1, 1},
		{1, 2, 1},
		{2, 2, 1},
		{3, 2, 2},
		{-1, 2, 0},
		{-2, 2, -1},
		{-3, 2, -1},
		{7, 3, 3},
		{9, 3, 3},
		{10, 3, 4},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want Ticks }{
		{0, 1, 0},
		{1, 2, 0},
		{2, 2, 1},
		{3, 2, 1},
		{-1, 2, -1},
		{-2, 2, -1},
		{-3, 2, -2},
		{9, 3, 3},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilFloorRelation(t *testing.T) {
	f := func(a int32, b int32) bool {
		bb := Ticks(b)
		if bb <= 0 {
			bb = 1 - bb
		}
		if bb == 0 {
			bb = 1
		}
		aa := Ticks(a)
		c, fl := CeilDiv(aa, bb), FloorDiv(aa, bb)
		if aa%bb == 0 {
			return c == fl
		}
		return c == fl+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDivPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive divisor")
		}
	}()
	CeilDiv(1, 0)
}

func TestJobsWithDeadlineBy(t *testing.T) {
	// d=4, p=10, j=0: deadlines at 4, 14, 24, ...
	cases := []struct{ t, want Ticks }{
		{0, 0}, {3, 0}, {4, 1}, {13, 1}, {14, 2}, {23, 2}, {24, 3},
	}
	for _, c := range cases {
		if got := JobsWithDeadlineBy(c.t, 4, 10, 0); got != c.want {
			t.Errorf("JobsWithDeadlineBy(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	// Jitter shifts deadlines earlier: j=2 means first deadline can be at 2.
	if got := JobsWithDeadlineBy(2, 4, 10, 2); got != 1 {
		t.Errorf("jittered JobsWithDeadlineBy(2) = %d, want 1", got)
	}
}

func TestJobsWithDeadlineByMonotone(t *testing.T) {
	f := func(tRaw, dRaw, pRaw uint16) bool {
		tt := Ticks(tRaw % 1000)
		d := Ticks(dRaw%100) + 1
		p := Ticks(pRaw%100) + 1
		return JobsWithDeadlineBy(tt, d, p, 0) <= JobsWithDeadlineBy(tt+1, d, p, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if got := AddSat(MaxTicks, 1); got != MaxTicks {
		t.Errorf("AddSat overflow = %d, want MaxTicks", got)
	}
	if got := AddSat(MaxTicks-1, 2); got != MaxTicks {
		t.Errorf("AddSat near-overflow = %d, want MaxTicks", got)
	}
	if got := AddSat(2, 3); got != 5 {
		t.Errorf("AddSat(2,3) = %d, want 5", got)
	}
	if got := MulSat(MaxTicks/2, 3); got != MaxTicks {
		t.Errorf("MulSat overflow = %d, want MaxTicks", got)
	}
	if got := MulSat(6, 7); got != 42 {
		t.Errorf("MulSat(6,7) = %d, want 42", got)
	}
	if got := MulSat(0, MaxTicks); got != 0 {
		t.Errorf("MulSat(0,Max) = %d, want 0", got)
	}
}

func TestGCDLCM(t *testing.T) {
	if got := GCD(12, 18); got != 6 {
		t.Errorf("GCD(12,18) = %d, want 6", got)
	}
	if got := GCD(0, 5); got != 5 {
		t.Errorf("GCD(0,5) = %d, want 5", got)
	}
	if got := LCM(4, 6); got != 12 {
		t.Errorf("LCM(4,6) = %d, want 12", got)
	}
	if got := LCM(0, 6); got != 0 {
		t.Errorf("LCM(0,6) = %d, want 0", got)
	}
}

func TestHyperperiod(t *testing.T) {
	if got := Hyperperiod([]Ticks{4, 6, 10}); got != 60 {
		t.Errorf("Hyperperiod = %d, want 60", got)
	}
	if got := Hyperperiod(nil); got != 1 {
		t.Errorf("Hyperperiod(nil) = %d, want 1", got)
	}
	if got := Hyperperiod([]Ticks{MaxTicks, 2}); got != MaxTicks {
		t.Errorf("Hyperperiod overflow = %d, want MaxTicks", got)
	}
}

func TestMinMax(t *testing.T) {
	if Min(2, 3) != 2 || Min(3, 2) != 2 {
		t.Error("Min broken")
	}
	if Max(2, 3) != 3 || Max(3, 2) != 3 {
		t.Error("Max broken")
	}
}

func TestTicksString(t *testing.T) {
	if Ticks(42).String() != "42" {
		t.Error("String(42)")
	}
	if MaxTicks.String() != "∞" {
		t.Error("String(MaxTicks)")
	}
}
