package topology

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"profirt/internal/pool"
)

// TestSimulateCancelAtRoundBarrier is the regression for the
// mid-fixed-point cancellation bug: a context cancelled during round 1
// must stop the bridge-exchange loop at the next round barrier and
// return ctx.Err(), instead of grinding to convergence (or MaxRounds).
func TestSimulateCancelAtRoundBarrier(t *testing.T) {
	st := noisyTopology()
	// Baseline: the fixture needs several rounds, so an uncancelled run
	// observing only round 1 would be indistinguishable from the bug.
	base, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Rounds < 2 {
		t.Fatalf("fixture converged in %d round(s); cannot exercise mid-fixed-point cancellation", base.Rounds)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rounds []int
	_, err = Simulate(st, SimOptions{
		Context: ctx,
		onRound: func(r int) {
			rounds = append(rounds, r)
			if r == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulation returned err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(rounds, []int{1}) {
		t.Fatalf("cancelled during round 1 but observed rounds %v; the fixed point ran past the barrier", rounds)
	}
}

// TestSimulateCancelledBeforeStart: a context already done when
// Simulate is called must not simulate any segment.
func TestSimulateCancelledBeforeStart(t *testing.T) {
	st := noisyTopology()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := Simulate(st, SimOptions{Context: ctx, onRound: func(int) { ran++ }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled simulation returned err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("pre-cancelled simulation still ran %d round(s)", ran)
	}
}

// TestSimulateNilContextUnchanged pins the compatibility contract: a
// nil Context (every pre-existing caller) runs to convergence exactly
// as before.
func TestSimulateNilContextUnchanged(t *testing.T) {
	st := noisyTopology()
	want, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := pool.NewShared(2)
	defer p.Close()
	got, err := Simulate(st, SimOptions{Context: nil, Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-context run diverged from the historical behaviour")
	}
}
