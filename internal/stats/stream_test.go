package stats

import (
	"math/rand"
	"sync"
	"testing"
)

// TestRowStreamerOrdersOutOfOrderEmits: rows emitted in a scrambled
// order must land in the table — and reach the sink — in index order,
// and the assembled table must equal a plain AddRow loop.
func TestRowStreamerOrdersOutOfOrderEmits(t *testing.T) {
	const n = 50
	want := NewTable("t", "i", "v")
	for i := 0; i < n; i++ {
		want.AddRow(i, float64(i)/3)
	}

	got := NewTable("t", "i", "v")
	var events []RowEvent
	rs := NewRowStreamer(got, n, func(e RowEvent) { events = append(events, e) })
	order := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range order {
		rs.Emit(i, i, float64(i)/3)
	}
	if got.String() != want.String() {
		t.Fatalf("streamed table differs:\n--- streamed ---\n%s--- direct ---\n%s", got.String(), want.String())
	}
	if got.NumRows() != n || len(events) != n {
		t.Fatalf("table has %d rows, sink saw %d, want %d", got.NumRows(), len(events), n)
	}
	if rs.pending != nil {
		t.Fatalf("a drained streamer still buffers %d rows", len(rs.pending))
	}
	for i, e := range events {
		if e.Index != i || e.Total != n || e.Table != got {
			t.Fatalf("event %d = %+v", i, e)
		}
		if e.Cells[0] != got.Row(i)[0] {
			t.Fatalf("event %d cells %v != table row %v", i, e.Cells, got.Row(i))
		}
	}
}

// TestRowStreamerConcurrent hammers Emit from many goroutines; the
// table must come out in index order regardless of interleaving.
func TestRowStreamerConcurrent(t *testing.T) {
	const n = 200
	table := NewTable("t", "i")
	last := -1
	ordered := true
	rs := NewRowStreamer(table, n, func(e RowEvent) {
		if e.Index != last+1 {
			ordered = false
		}
		last = e.Index
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs.Emit(i, i)
		}(i)
	}
	wg.Wait()
	if !ordered || last != n-1 {
		t.Fatalf("sink events out of order (last %d)", last)
	}
	if table.NumRows() != n {
		t.Fatalf("table has %d rows, want %d", table.NumRows(), n)
	}
	for i := 0; i < n; i++ {
		if got := table.Row(i)[0]; got != itoa(i) {
			t.Fatalf("row %d = %q", i, got)
		}
	}
}

func itoa(i int) string {
	t := NewTable("", "")
	t.AddRow(i)
	return t.Row(0)[0]
}

// TestRowStreamerNoSink: a nil sink still orders the appends.
func TestRowStreamerNoSink(t *testing.T) {
	table := NewTable("t", "i")
	rs := NewRowStreamer(table, 3, nil)
	rs.Emit(2, "c")
	rs.Emit(0, "a")
	if table.NumRows() != 1 {
		t.Fatalf("premature release: %d rows", table.NumRows())
	}
	rs.Emit(1, "b")
	if table.NumRows() != 3 || table.Row(2)[0] != "c" {
		t.Fatalf("rows out of order: %v", table.Row(2))
	}
}
