package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxEvents bounds a Tracer's event buffer so a runaway traced
// campaign cannot hold the process's memory hostage; completed spans
// past the cap increment Dropped instead of appending.
const DefaultMaxEvents = 1 << 18

// Tracer collects completed spans for one trace (one HTTP request,
// one campaign run). It is safe for concurrent use: span starts are
// lock-free, span ends append under a mutex. Export with WriteTo
// (Chrome trace_event JSON) or inspect with Events.
type Tracer struct {
	id        string
	clock     Clock
	epoch     time.Time
	maxEvents int

	seq     atomic.Uint64
	dropped atomic.Uint64

	mu     sync.Mutex
	events []Event
}

// Event is one completed span.
type Event struct {
	Name    string // span name, e.g. "pool.job"
	ID      uint64 // span id, unique within the tracer
	Parent  uint64 // enclosing span id; 0 for a root span
	TID     int64  // goroutine id the span ended on
	StartNs int64  // start offset from the tracer's epoch
	DurNs   int64  // duration
	Arg     int64  // user argument (job index, round number); -1 if unset
}

// NewTracer starts an empty trace. id labels the trace in exports
// (the serve layer uses the request ID); a nil clock selects Wall.
func NewTracer(id string, clock Clock) *Tracer {
	clock = orWall(clock)
	return &Tracer{
		id:        id,
		clock:     clock,
		epoch:     clock.Now(),
		maxEvents: DefaultMaxEvents,
	}
}

// Dropped reports how many completed spans were discarded because the
// event buffer hit its cap.
func (t *Tracer) Dropped() uint64 { return t.dropped.Load() }

// Events returns a copy of the completed spans recorded so far.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

func (t *Tracer) sinceNs() int64 { return int64(t.clock.Now().Sub(t.epoch)) }

func (t *Tracer) add(e Event) {
	t.mu.Lock()
	if len(t.events) >= t.maxEvents {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Span is an in-progress span. The zero Span (from an untraced
// context) is valid and End is a no-op, so call sites never branch.
type Span struct {
	t       *Tracer
	name    string
	id      uint64
	parent  uint64
	arg     int64
	startNs int64
}

// End completes the span, recording it on its tracer.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.add(Event{
		Name:    s.name,
		ID:      s.id,
		Parent:  s.parent,
		TID:     GoroutineID(),
		StartNs: s.startNs,
		DurNs:   s.t.sinceNs() - s.startNs,
		Arg:     s.arg,
	})
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying t; spans started from the
// returned context (and its descendants) record on t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if ctx == nil || t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// StartSpan opens a span named name as a child of the span already in
// ctx (root if none). On an untraced context it returns ctx unchanged
// and a zero Span without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	return StartSpanArg(ctx, name, -1)
}

// StartSpanArg is StartSpan with a numeric argument (job index, round
// number) attached to the exported event.
func StartSpanArg(ctx context.Context, name string, arg int64) (context.Context, Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, Span{}
	}
	sp := Span{
		t:       t,
		name:    name,
		id:      t.seq.Add(1),
		arg:     arg,
		startNs: t.sinceNs(),
	}
	if parent, ok := ctx.Value(spanKey).(uint64); ok {
		sp.parent = parent
	}
	return context.WithValue(ctx, spanKey, sp.id), sp
}

// traceEvent is one Chrome trace_event "complete" (ph:"X") entry.
// Timestamps and durations are microseconds, per the format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args traceEventArgs `json:"args"`
}

type traceEventArgs struct {
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Arg    *int64 `json:"i,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       traceOtherData `json:"otherData"`
}

type traceOtherData struct {
	TraceID string `json:"traceId"`
	Dropped uint64 `json:"dropped"`
}

// WriteTo exports the trace as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto. Events are sorted by start time so
// exports of the same trace are stable.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	events := t.Events()
	sort.Slice(events, func(i, j int) bool {
		if events[i].StartNs != events[j].StartNs {
			return events[i].StartNs < events[j].StartNs
		}
		return events[i].ID < events[j].ID
	})
	out := traceFile{
		TraceEvents:     make([]traceEvent, 0, len(events)),
		DisplayTimeUnit: "ms",
		OtherData:       traceOtherData{TraceID: t.id, Dropped: t.Dropped()},
	}
	for _, e := range events {
		te := traceEvent{
			Name: e.Name,
			Cat:  "profirt",
			Ph:   "X",
			TS:   float64(e.StartNs) / 1e3,
			Dur:  float64(e.DurNs) / 1e3,
			PID:  1,
			TID:  e.TID,
			Args: traceEventArgs{Span: e.ID, Parent: e.Parent},
		}
		if e.Arg >= 0 {
			arg := e.Arg
			te.Args.Arg = &arg
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(append(b, '\n'))
	return int64(n), err
}

// GoroutineID parses the current goroutine's id from its stack header
// ("goroutine N [running]: ..."); 0, which no goroutine carries, when
// the header cannot be parsed. Tracing pays it once per completed span,
// and internal/pool once per multi-job submission to detect re-entrant
// submissions from its own workers.
func GoroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	head := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(head, ' '); i > 0 {
		if id, err := strconv.ParseInt(string(head[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}
