package ap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func req(stream int, release, relDeadline Ticks) Request {
	return Request{
		Stream:      stream,
		Release:     release,
		Ready:       release,
		RelDeadline: relDeadline,
		AbsDeadline: release + relDeadline,
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{FCFS: "FCFS", DM: "DM", EDF: "EDF", Policy(9): "Policy(9)"} {
		if p.String() != want {
			t.Errorf("%d = %q want %q", int(p), p.String(), want)
		}
	}
}

func TestEmptyQueue(t *testing.T) {
	q := NewQueue(DM)
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty must report false")
	}
	q.Push(req(0, 0, 10))
	if r, ok := q.Pop(); !ok || r.Stream != 0 {
		t.Fatalf("Pop = %+v, %v, want stream 0", r, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on a drained queue must report false")
	}
}

func TestFCFSOrder(t *testing.T) {
	q := NewQueue(FCFS)
	q.Push(req(0, 30, 5))
	q.Push(req(1, 10, 100))
	q.Push(req(2, 20, 1))
	var got []int
	for {
		r, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, r.Stream)
	}
	want := []int{1, 2, 0} // by readiness, deadlines ignored
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FCFS order %v, want %v", got, want)
		}
	}
}

func TestDMOrder(t *testing.T) {
	q := NewQueue(DM)
	q.Push(req(0, 0, 50))
	q.Push(req(1, 5, 10)) // tighter relative deadline wins despite later arrival
	q.Push(req(2, 1, 30))
	r, _ := q.Pop()
	if r.Stream != 1 {
		t.Errorf("DM head = %d, want 1", r.Stream)
	}
	r, _ = q.Pop()
	if r.Stream != 2 {
		t.Errorf("DM second = %d, want 2", r.Stream)
	}
}

func TestEDFOrder(t *testing.T) {
	q := NewQueue(EDF)
	q.Push(req(0, 0, 100)) // abs 100
	q.Push(req(1, 90, 15)) // abs 105
	q.Push(req(2, 50, 20)) // abs 70
	r, _ := q.Pop()
	if r.Stream != 2 {
		t.Errorf("EDF head = %d, want 2", r.Stream)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	for _, pol := range []Policy{FCFS, DM, EDF} {
		q := NewQueue(pol)
		// All keys equal: insertion order must be preserved.
		for i := 0; i < 5; i++ {
			q.Push(req(i, 10, 10))
		}
		for i := 0; i < 5; i++ {
			r, ok := q.Pop()
			if !ok || r.Stream != i {
				t.Fatalf("%v: tie-break broke FIFO at %d (got %d)", pol, i, r.Stream)
			}
		}
	}
}

// Property: popping drains in non-decreasing key order for each policy.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, pol := range []Policy{FCFS, DM, EDF} {
			q := NewQueue(pol)
			n := 1 + rng.Intn(40)
			for i := 0; i < n; i++ {
				q.Push(req(i, Ticks(rng.Intn(100)), Ticks(1+rng.Intn(100))))
			}
			var keys []Ticks
			for {
				r, ok := q.Pop()
				if !ok {
					break
				}
				switch pol {
				case FCFS:
					keys = append(keys, r.Ready)
				case DM:
					keys = append(keys, r.RelDeadline)
				case EDF:
					keys = append(keys, r.AbsDeadline)
				}
			}
			if len(keys) != n {
				return false
			}
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStackSlot(t *testing.T) {
	var s StackSlot
	if s.Filled() {
		t.Error("zero slot must be empty")
	}
	if _, ok := s.Take(); ok {
		t.Error("Take on empty must fail")
	}
	s.Fill(req(3, 1, 2))
	if !s.Filled() {
		t.Error("slot must be filled")
	}
	r, ok := s.Take()
	if !ok || r.Stream != 3 || s.Filled() {
		t.Error("Take wrong")
	}
	if _, ok := s.Take(); ok {
		t.Error("Take must empty the slot")
	}
}

func TestStackSlotDoubleFillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double fill")
		}
	}()
	var s StackSlot
	s.Fill(req(0, 0, 1))
	s.Fill(req(1, 0, 1))
}

// The slot models the priority-inversion source: once a low-priority
// request is committed, a tighter one arriving later cannot overtake it.
func TestSlotCommitSemantics(t *testing.T) {
	q := NewQueue(DM)
	var s StackSlot
	q.Push(req(0, 0, 100)) // loose deadline
	if !s.Refill(q) {
		t.Fatal("refill should transfer")
	}
	q.Push(req(1, 1, 5)) // tight deadline arrives after commit
	if s.Refill(q) {
		t.Fatal("refill must not preempt a committed request")
	}
	r, _ := s.Take()
	if r.Stream != 0 {
		t.Errorf("slot served %d, want committed 0", r.Stream)
	}
	if !s.Refill(q) {
		t.Fatal("second refill should transfer the tight request")
	}
	r, _ = s.Take()
	if r.Stream != 1 {
		t.Errorf("slot now %d, want 1", r.Stream)
	}
}

func TestRefillOnEmptyQueue(t *testing.T) {
	q := NewQueue(EDF)
	var s StackSlot
	if s.Refill(q) {
		t.Error("refill from empty queue must be a no-op")
	}
}
