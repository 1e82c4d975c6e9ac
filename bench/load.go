package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"profirt/internal/obs"
)

// phase is the record of one load phase: what was sent, what came
// back correct, and the per-request timings.
type phase struct {
	Name    string  `json:"name"`
	Sent    int     `json:"sent"`
	OK      int     `json:"ok"`
	Failed  int     `json:"failed"`
	Seconds float64 `json:"seconds"`
	// P50Ms and MaxMs summarize lat.
	P50Ms float64 `json:"p50Ms,omitempty"`
	MaxMs float64 `json:"maxMs,omitempty"`
	// lat holds each request's latency in ms (from its due time in an
	// open loop); a failed request counts as +Inf, missing any limit.
	lat []float64
	// late holds, for an open loop, how long after its due time each
	// request was handed to a connection, in ms.
	late []float64
	// cpu is the load generator's own CPU time during the phase.
	cpu time.Duration
}

// loader sends requests to one endpoint over at most conns
// connections, verifying every response.
type loader struct {
	hc    *http.Client
	url   string
	conns int

	mu       sync.Mutex
	firstErr error
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send posts r and reports whether a correct response came back.
func (l *loader) send(r *request, buf *bytes.Buffer) bool {
	err := post(l.hc, l.url, r.body, buf)
	if err == nil && !verify(r, buf.Bytes()) {
		err = fmt.Errorf("response differs from the expected bytes (%d bytes)", buf.Len())
	}
	if err != nil {
		l.mu.Lock()
		if l.firstErr == nil {
			l.firstErr = err
		}
		l.mu.Unlock()
		return false
	}
	return true
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop keeps every connection busy: each sends its next request
// as soon as the previous one returns, until dur has passed (dur 0:
// no time limit) or n requests were sent (n < 0: no count limit).
// next maps a request's sequence number to its body.
func (l *loader) closedLoop(name string, next func(i int) *request, n int, dur time.Duration) phase {
	var seq, okN atomic.Int64
	lat := make([][]float64, l.conns)
	c0, t0 := cpuTime(), obs.Now()
	var wg sync.WaitGroup
	for w := range l.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(seq.Add(1) - 1)
				if (n >= 0 && i >= n) || (dur > 0 && obs.Now().Sub(t0) >= dur) {
					return
				}
				s := obs.Now()
				ok := l.send(next(i), &buf)
				d := ms(obs.Now().Sub(s))
				if ok {
					okN.Add(1)
				} else {
					d = math.Inf(1)
				}
				lat[w] = append(lat[w], d)
			}
		}()
	}
	wg.Wait()
	p := phase{Name: name, Seconds: obs.Now().Sub(t0).Seconds(), cpu: cpuTime() - c0}
	for _, ls := range lat {
		p.lat = append(p.lat, ls...)
	}
	p.Sent = len(p.lat)
	p.OK = int(okN.Load())
	p.Failed = p.Sent - p.OK
	return p
}

// openLoop sends n requests at Poisson arrival times of the given
// mean rate, whether or not earlier ones have returned. Each request
// is timed from its due time, so a stall also charges the requests
// queued behind it; with every connection busy, due requests wait in
// order for the next free one.
func (l *loader) openLoop(name string, next func(i int) *request, n int, rate float64, rng *rand.Rand) phase {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	p := phase{Name: name, Sent: n, lat: make([]float64, n), late: make([]float64, n)}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var okN atomic.Int64
	var wg sync.WaitGroup
	for range l.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				s := obs.Now()
				ok := l.send(next(j.i), &buf)
				end := obs.Now()
				p.late[j.i] = ms(s.Sub(j.due))
				p.lat[j.i] = ms(end.Sub(j.due))
				if ok {
					okN.Add(1)
				} else {
					p.lat[j.i] = math.Inf(1)
				}
			}
		}()
	}
	c0, t0 := cpuTime(), obs.Now()
	for i, d := range due {
		at := t0.Add(d)
		if wait := at.Sub(obs.Now()); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{i: i, due: at}
	}
	close(jobs)
	wg.Wait()
	p.Seconds = obs.Now().Sub(t0).Seconds()
	p.cpu = cpuTime() - c0
	p.OK = int(okN.Load())
	p.Failed = n - p.OK
	return p
}
