package des

import (
	"testing"
)

// recorder installs a dispatch handler that logs every fired payload
// together with the time it fired at.
type recorder struct {
	got []Payload
	at  []Ticks
}

func (r *recorder) attach(e *Engine) {
	e.SetDispatch(func(p Payload) {
		r.got = append(r.got, p)
		r.at = append(r.at, e.Now())
	})
}

// xs returns the X operand of every fired payload, in firing order.
func (r *recorder) xs() []int32 {
	out := make([]int32, len(r.got))
	for i, p := range r.got {
		out[i] = p.X
	}
	return out
}

func TestEventOrdering(t *testing.T) {
	var e Engine
	var r recorder
	r.attach(&e)
	e.SchedulePayload(10, 0, Payload{X: 1})
	e.SchedulePayload(5, 0, Payload{X: 0})
	e.SchedulePayload(10, 0, Payload{X: 2}) // same time, later insertion
	e.Run(100)
	if got := r.xs(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", got)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want horizon 100", e.Now())
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed)
	}
}

func TestSameInstantPriority(t *testing.T) {
	var e Engine
	var r recorder
	r.attach(&e)
	e.SchedulePayload(7, 2, Payload{X: 2}) // low
	e.SchedulePayload(7, 1, Payload{X: 1}) // high
	e.Run(10)
	if got := r.xs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("priority order wrong: %v", got)
	}
}

func TestPayloadDispatchOrdering(t *testing.T) {
	var e Engine
	var r recorder
	r.attach(&e)
	e.SchedulePayload(10, 0, Payload{Kind: 2, X: 2})
	e.SchedulePayload(5, 0, Payload{Kind: 1, X: 1, A: 99})
	e.SchedulePayload(10, -1, Payload{Kind: 3, X: 3}) // same instant, higher prio
	e.Run(100)
	if got := r.xs(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Errorf("payload order = %v, want X sequence 1,3,2", got)
	}
	if r.got[0].A != 99 || r.got[0].Kind != 1 {
		t.Errorf("payload fields not carried: %+v", r.got[0])
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed)
	}
}

func TestScheduleAfterAndNesting(t *testing.T) {
	var e Engine
	var fired []Ticks
	e.SetDispatch(func(p Payload) {
		fired = append(fired, e.Now())
		if p.Kind == 0 {
			e.SchedulePayloadAfter(4, Payload{Kind: 1})
		}
	})
	e.SchedulePayload(3, 0, Payload{Kind: 0})
	e.Run(100)
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 7 {
		t.Errorf("fired = %v, want [3 7]", fired)
	}
}

func TestHorizonExcludesBoundary(t *testing.T) {
	var e Engine
	var r recorder
	r.attach(&e)
	e.SchedulePayload(10, 0, Payload{})
	e.Run(10)
	if len(r.got) != 0 {
		t.Error("event at the horizon must not fire")
	}
	// Resuming with a larger horizon fires it.
	e.Run(11)
	if len(r.got) != 1 {
		t.Error("resumed run must fire the deferred event")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.SetDispatch(func(Payload) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.SchedulePayload(3, 0, Payload{})
	})
	e.SchedulePayload(5, 0, Payload{})
	e.Run(10)
}

// schedulePseudoRandom enqueues n events at times (i·stride) mod span
// and runs them to horizon, returning the firing-time log.
func schedulePseudoRandom(e *Engine, n, stride, span int, horizon Ticks) []Ticks {
	var r recorder
	r.attach(e)
	for i := 0; i < n; i++ {
		e.SchedulePayload(Ticks((i*stride)%span), 0, Payload{X: int32(i)})
	}
	e.Run(horizon)
	return r.at
}

func TestResetReuse(t *testing.T) {
	var fresh Engine
	want := schedulePseudoRandom(&fresh, 100, 31, 97, 1000)

	var reused Engine
	// Dirty the engine, leaving events pending past the horizon.
	schedulePseudoRandom(&reused, 100, 31, 97, 50)
	reused.Reset()
	if reused.Now() != 0 || len(reused.events) != 0 || reused.Processed != 0 {
		t.Fatalf("Reset left state: now=%d pending=%d processed=%d",
			reused.Now(), len(reused.events), reused.Processed)
	}
	got := schedulePseudoRandom(&reused, 100, 31, 97, 1000)
	if len(got) != len(want) {
		t.Fatalf("lengths %d/%d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reused engine diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []Ticks {
		var e Engine
		return schedulePseudoRandom(&e, 500, 7919, 1000, 1000)
	}
	a, b := run(), run()
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("time went backwards at %d", i)
		}
	}
}
