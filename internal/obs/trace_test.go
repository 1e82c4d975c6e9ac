package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every Now call, making span
// durations deterministic.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(f.step)
	return f.t
}

func TestSpanNestingAndExport(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	tr := NewTracer("req-1", clk)
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "request")
	ctx2, mid := StartSpan(ctx1, "engine.analyze_networks")
	_, leaf := StartSpanArg(ctx2, "pool.job", 3)
	leaf.End()
	mid.End()
	root.End()

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	byName := map[string]Event{}
	for _, e := range events {
		byName[e.Name] = e
	}
	if byName["request"].Parent != 0 {
		t.Errorf("request parent = %d, want 0", byName["request"].Parent)
	}
	if byName["engine.analyze_networks"].Parent != byName["request"].ID {
		t.Errorf("engine span not parented under request")
	}
	if byName["pool.job"].Parent != byName["engine.analyze_networks"].ID {
		t.Errorf("pool.job not parented under engine span")
	}
	if byName["pool.job"].Arg != 3 {
		t.Errorf("pool.job arg = %d, want 3", byName["pool.job"].Arg)
	}
	if byName["request"].DurNs <= 0 {
		t.Errorf("request duration = %d, want > 0", byName["request"].DurNs)
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
				I      *int64 `json:"i"`
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			TraceID string `json:"traceId"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if decoded.OtherData.TraceID != "req-1" {
		t.Errorf("traceId = %q, want req-1", decoded.OtherData.TraceID)
	}
	if len(decoded.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(decoded.TraceEvents))
	}
	// Sorted by start: request, engine, pool.job.
	wantOrder := []string{"request", "engine.analyze_networks", "pool.job"}
	for i, te := range decoded.TraceEvents {
		if te.Name != wantOrder[i] {
			t.Errorf("event %d = %q, want %q", i, te.Name, wantOrder[i])
		}
		if te.Ph != "X" {
			t.Errorf("event %d ph = %q, want X", i, te.Ph)
		}
	}
	if decoded.TraceEvents[2].Args.I == nil || *decoded.TraceEvents[2].Args.I != 3 {
		t.Errorf("pool.job exported arg missing or wrong")
	}
}

func TestUntracedContextIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "noop")
	if ctx2 != ctx {
		t.Fatalf("untraced StartSpan changed the context")
	}
	sp.End() // must not panic
	var nilCtxSpan Span
	nilCtxSpan.End()
	if tr := TracerFrom(nil); tr != nil {
		t.Fatalf("TracerFrom(nil) = %v, want nil", tr)
	}
	if ctx3, sp3 := StartSpan(nil, "x"); ctx3 != nil || sp3.t != nil {
		t.Fatalf("StartSpan(nil) should be inert")
	}
}

func TestTracerEventCap(t *testing.T) {
	tr := NewTracer("cap", &fakeClock{step: time.Microsecond})
	tr.maxEvents = 4
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("kept %d events, want 4", got)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer("conc", nil)
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c, sp := StartSpanArg(ctx, "job", int64(i))
				_, inner := StartSpan(c, "inner")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != 8*200*2 {
		t.Fatalf("got %d events, want %d", got, 8*200*2)
	}
	ids := make(map[uint64]bool, 8*200*2)
	for _, e := range tr.Events() {
		if ids[e.ID] {
			t.Fatalf("duplicate span id %d", e.ID)
		}
		ids[e.ID] = true
	}
}

func TestWallClockDefault(t *testing.T) {
	if Wall.Now().IsZero() {
		t.Fatal("Wall.Now returned zero time")
	}
	if Now().IsZero() {
		t.Fatal("Now returned zero time")
	}
	if orWall(nil) != Wall {
		t.Fatal("orWall(nil) != Wall")
	}
	m := NewMetrics(nil)
	if m.Clock != Wall || m.Pool.Clock != Wall || m.Cache.Clock != Wall {
		t.Fatal("NewMetrics(nil) did not propagate Wall")
	}
}

func TestOpString(t *testing.T) {
	if OpAnalyzeNetworks.String() != "analyze_networks" {
		t.Fatalf("OpAnalyzeNetworks = %q", OpAnalyzeNetworks.String())
	}
	if Op(99).String() != "unknown" {
		t.Fatalf("out-of-range op = %q", Op(99).String())
	}
	for op := Op(0); int(op) < NumOps; op++ {
		if op.String() == "" || op.String() == "unknown" {
			t.Fatalf("op %d has no name", op)
		}
	}
}
