package stats

import "sync"

// Row-streamed table assembly. The parallel harnesses (the experiment
// drivers, the campaign engine) compute one table row per grid cell on
// a worker pool, where cells complete in arbitrary order but tables
// must read in grid order. Historically every driver buffered all rows
// and appended them after the pool drained; a RowStreamer instead
// releases each row the moment it — and every row before it — is
// ready, so a long-running sweep's table builds incrementally while
// staying byte-identical to the buffered assembly.

// RowEvent reports one table row released in grid order.
type RowEvent struct {
	// Table is the table the row was appended to.
	Table *Table
	// Index is the row's grid position; events for one table arrive
	// with strictly increasing Index.
	Index int
	// Total is the number of rows the streamer will release.
	Total int
	// Cells holds the formatted row.
	Cells []string
}

// RowStreamer assembles one table's rows from concurrent producers.
// Emit may be called from any goroutine, once per row index; the
// streamer appends rows to the table in index order (buffering rows
// that arrive early) and forwards each appended row to the sink.
type RowStreamer struct {
	t    *Table
	sink func(RowEvent)

	mu      sync.Mutex
	total   int
	next    int
	pending map[int][]string
}

// NewRowStreamer wires a streamer for a table of total rows. sink may
// be nil (rows are still appended in order). The sink is invoked with
// the streamer's lock held so events arrive in row order; keep it
// cheap and never call Emit from it.
func NewRowStreamer(t *Table, total int, sink func(RowEvent)) *RowStreamer {
	return &RowStreamer{t: t, sink: sink, total: total, pending: make(map[int][]string)}
}

// Emit hands the streamer row i. The row is appended to the table (and
// reported to the sink) as soon as rows 0..i-1 have all been emitted;
// until then it is buffered. Each index must be emitted exactly once.
func (r *RowStreamer) Emit(i int, cells ...any) {
	row := formatRow(cells)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending == nil {
		r.pending = make(map[int][]string)
	}
	r.pending[i] = row
	for {
		next, ok := r.pending[r.next]
		if !ok {
			break
		}
		delete(r.pending, r.next)
		r.t.mu.Lock()
		r.t.rows = append(r.t.rows, next)
		r.t.mu.Unlock()
		if r.sink != nil {
			r.sink(RowEvent{Table: r.t, Index: r.next, Total: r.total, Cells: next})
		}
		r.next++
	}
	if r.next >= r.total {
		// Fully drained: drop the buffer so a streamer that outlives
		// its run (the drivers keep them alive as long as the tables)
		// retains no row backing arrays or grown map buckets.
		r.pending = nil
	}
}
