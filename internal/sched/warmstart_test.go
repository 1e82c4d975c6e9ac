package sched

import (
	"math/rand"
	"testing"

	"profirt/internal/timeunit"
)

// coldRevised is RevisedResponseTime with every job's fixed point
// iterated from FixedPoint's own seed, base + Σ C_j.
func coldRevised(level TaskSet, blocking Ticks, preemptive bool, horizon Ticks) Ticks {
	hp, ti := level[:len(level)-1], level[len(level)-1]
	busy := BusyPeriod(level, blocking, horizon)
	if busy >= horizon {
		return timeunit.MaxTicks
	}
	njobs := timeunit.Max(timeunit.CeilDiv(busy+ti.J, ti.T), 1)
	if njobs > 1<<17 {
		return timeunit.MaxTicks
	}
	var best Ticks
	for q := Ticks(0); q < njobs; q++ {
		var finish Ticks
		if preemptive {
			finish = FixedPoint(hp, blocking+(q+1)*ti.C, true, horizon)
		} else {
			finish = timeunit.AddSat(FixedPoint(hp, blocking+q*ti.C, false, horizon), ti.C)
		}
		if finish == timeunit.MaxTicks {
			return timeunit.MaxTicks
		}
		best = timeunit.Max(best, finish-q*ti.T)
	}
	return best + ti.J
}

// coldEDF is EDFResponseTime with every offset's fixed point iterated
// from L = 0.
func coldEDF(ts TaskSet, i int, preemptive bool, blocking, served, window, horizon Ticks) Ticks {
	ti := ts[i]
	best := ti.C
	for _, a := range deadlineInstants(nil, ts, i, ti.D, window) {
		adi := a + ti.D
		base := (a / ti.T) * ti.C
		if preemptive {
			base += ti.C
		} else {
			b := blocking
			for j, tj := range ts {
				if j != i && tj.D-tj.J > adi {
					b = timeunit.Max(b, tj.C-served)
				}
			}
			base += b
		}
		var l Ticks
		for {
			next := base
			for j, tj := range ts {
				if j == i || tj.D-tj.J > adi {
					continue
				}
				n := (l+tj.J)/tj.T + 1
				if preemptive {
					n = timeunit.CeilDiv(l+tj.J, tj.T)
				}
				next += timeunit.Min(n, 1+(adi-tj.D+tj.J)/tj.T) * tj.C
			}
			if next == l {
				break
			}
			l = next
			if l > horizon+a {
				return timeunit.MaxTicks
			}
		}
		if !preemptive {
			l += ti.C
		}
		best = timeunit.Max(best, l-a)
	}
	return best + ti.J
}

// randomJitteredSet draws 1–5 tasks with periods 2–61, D up to 2T and
// release jitter up to 3T on half of them.
func randomJitteredSet(rng *rand.Rand) TaskSet {
	ts := make(TaskSet, 1+rng.Intn(5))
	for k := range ts {
		T := Ticks(2 + rng.Intn(60))
		ts[k] = Task{C: Ticks(1 + rng.Intn(int(T))), D: Ticks(1 + rng.Intn(int(2*T))), T: T}
		if rng.Intn(2) == 0 {
			ts[k].J = Ticks(rng.Intn(int(3 * T)))
		}
	}
	return ts
}

// TestWarmStartsMatchColdIteration pins that both kernels' warm starts
// (job q from job q − 1's fixed point plus C_i, offset a from the
// previous offset's) return exactly what iterating every fixed point
// from its cold seed returns, MaxTicks included. Small horizons put
// many cases on the horizon check.
func TestWarmStartsMatchColdIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var offsets []Ticks
	maxed := 0
	for trial := 0; trial < 8000; trial++ {
		ts := randomJitteredSet(rng)
		pre := rng.Intn(2) == 0
		blocking := Ticks(rng.Intn(2) * rng.Intn(30))
		horizon := Ticks(10 + rng.Intn(3000))
		want := coldRevised(ts, blocking, pre, horizon)
		if got := RevisedResponseTime(ts, blocking, pre, horizon); got != want {
			t.Fatalf("trial %d: RevisedResponseTime(%+v, B %d, preemptive %v, horizon %d) = %v, cold %v",
				trial, ts, blocking, pre, horizon, got, want)
		}
		i, served, window := rng.Intn(len(ts)), Ticks(rng.Intn(2)), Ticks(rng.Intn(2000))
		want = coldEDF(ts, i, pre, blocking, served, window, horizon)
		if got := EDFResponseTime(ts, i, pre, blocking, served, window, horizon, &offsets); got != want {
			t.Fatalf("trial %d: EDFResponseTime(%+v, %d, preemptive %v, B %d, served %d, window %d, horizon %d) = %v, cold %v",
				trial, ts, i, pre, blocking, served, window, horizon, got, want)
		}
		if want == timeunit.MaxTicks {
			maxed++
		}
	}
	if maxed == 0 {
		t.Fatal("no trial reached the horizon")
	}
}

// TestSeededFixedPointHorizon pins fixedPointFrom against FixedPoint
// for every seed up to the least fixed point. On w = 5 + ⌈w/4⌉·3 the
// cold iterates 8, 11, 14, 17, 20 pass horizon 15, so FixedPoint says
// MaxTicks; a seed of 20 is already the fixed point and must say so
// too. On w = 5 + ⌈w/10⌉ the cold seed 6 is the fixed point and stays
// finite above horizon 5.
func TestSeededFixedPointHorizon(t *testing.T) {
	for _, tc := range []struct {
		hp            TaskSet
		base, horizon Ticks
	}{
		{TaskSet{{C: 3, T: 4}}, 5, 15},
		{TaskSet{{C: 3, T: 4}}, 5, 100},
		{TaskSet{{C: 1, T: 10}}, 5, 5},
		{TaskSet{{C: 2, T: 7, J: 3}, {C: 1, T: 5}}, 4, 12},
	} {
		for _, ceil := range []bool{true, false} {
			want := FixedPoint(tc.hp, tc.base, ceil, tc.horizon)
			lfp := FixedPoint(tc.hp, tc.base, ceil, timeunit.MaxTicks-1)
			for seed := Ticks(0); seed <= lfp; seed++ {
				if got := fixedPointFrom(tc.hp, tc.base, seed, ceil, tc.horizon); got != want {
					t.Errorf("%+v base %d ceil %v horizon %d seed %d: %v, FixedPoint %v",
						tc.hp, tc.base, ceil, tc.horizon, seed, got, want)
				}
			}
		}
	}
}
