package profibus

import (
	"math/rand"
	"sync"

	"profirt/internal/ap"
	"profirt/internal/des"
	"profirt/internal/fdl"
	"profirt/internal/timeunit"
)

// request is one in-flight message request inside the simulator.
type request struct {
	stream  int
	nominal Ticks
}

// tokenPhase tracks where a master is in the paper's token-holding
// listing.
type tokenPhase int

const (
	phaseFirstHigh tokenPhase = iota // the unconditional single high cycle
	phaseHigh                        // WHILE TTH>0 AND pending high
	phaseGap                         // ring maintenance (FDL-Status poll)
	phaseLow                         // WHILE TTH>0 AND pending low
)

// Event kinds carried in des.Payload.Kind. Every simulator event is a
// closure-free payload event dispatched through (*simulator).dispatch,
// so scheduling allocates nothing on the hot path.
const (
	evArrival   = iota + 1 // X=master, Y=stream, A=nominal (ready = Now)
	evToken                // X=master receiving the token
	evCycleDone            // X=master, Y=stream, A=nominal, Z=retries, Flags
	evGapDone              // X=master, Flags
)

// Payload flag bits for evCycleDone / evGapDone.
const (
	flagFailed  = 1 << iota // cycle abandoned after all retries
	flagOverrun             // cycle started within TTH and finished beyond it
)

type masterState struct {
	idx int
	cfg MasterConfig

	// apQueue holds high-priority requests when the paper's
	// architecture is active (DM/EDF); unused under stock FCFS.
	apQueue *ap.Queue
	// slot is the one-request stack queue under DM/EDF.
	slot ap.StackSlot
	// stackHigh is the stock FCFS high-priority stack queue
	// (unbounded) used when Dispatcher == FCFS. Queues pop by
	// advancing a head index instead of re-slicing, so the backing
	// array keeps its full capacity across a pooled simulator's runs.
	stackHigh []request
	highHead  int
	// stackLow is the FCFS low-priority queue (always stock).
	stackLow []request
	lowHead  int

	// frames and worst-case cycle metadata per stream.
	action   []fdl.Frame
	response []fdl.Frame

	lastArrival  Ticks
	firstArrival bool
	tokenArrival Ticks
	tth          Ticks
	phase        tokenPhase

	// inflight is the request whose cycle currently occupies the bus,
	// tracked so a horizon cut-off still censors it into the stats.
	inflight    request
	hasInflight bool
	stats       MasterStats

	// GAP maintenance state: token visits seen, and the next address of
	// the GAP (between this master and its successor) to poll.
	visits  int64
	nextGap byte
}

// reset re-arms the master for a new run, reusing queue and frame
// storage. Every field is (re)assigned: a pooled simulator must not
// leak state between runs.
func (m *masterState) reset(idx int, mc MasterConfig) {
	m.idx = idx
	m.cfg = mc
	if mc.Dispatcher != ap.FCFS {
		if m.apQueue == nil {
			m.apQueue = ap.NewQueue(mc.Dispatcher)
		} else {
			m.apQueue.Reset(mc.Dispatcher)
		}
	} else if m.apQueue != nil {
		m.apQueue.Reset(mc.Dispatcher)
	}
	m.slot = ap.StackSlot{}
	m.stackHigh = m.stackHigh[:0]
	m.highHead = 0
	m.stackLow = m.stackLow[:0]
	m.lowHead = 0
	n := len(mc.Streams)
	if cap(m.action) < n {
		m.action = make([]fdl.Frame, n)
		m.response = make([]fdl.Frame, n)
	}
	m.action = m.action[:n]
	m.response = m.response[:n]
	for si, st := range mc.Streams {
		m.action[si], m.response[si] = st.Frames()
	}
	m.lastArrival = 0
	m.firstArrival = true
	m.tokenArrival = 0
	m.tth = 0
	m.phase = phaseFirstHigh
	m.inflight = request{}
	m.hasInflight = false
	// PerStream escapes into the Result, so it is the one per-run
	// allocation the master keeps.
	m.stats = MasterStats{PerStream: make([]StreamStats, n)}
	m.visits = 0
	m.nextGap = 0
}

// highPending reports whether a high-priority request is available for
// transmission (in the stack slot or FCFS stack queue).
func (m *masterState) highPending() bool {
	if m.cfg.Dispatcher == ap.FCFS {
		return m.highHead < len(m.stackHigh)
	}
	m.slot.Refill(m.apQueue)
	return m.slot.Filled()
}

// popHigh removes the next high-priority request.
func (m *masterState) popHigh() (request, bool) {
	if m.cfg.Dispatcher == ap.FCFS {
		if m.highHead >= len(m.stackHigh) {
			return request{}, false
		}
		r := m.stackHigh[m.highHead]
		m.highHead++
		if m.highHead == len(m.stackHigh) {
			m.stackHigh = m.stackHigh[:0]
			m.highHead = 0
		}
		return r, true
	}
	m.slot.Refill(m.apQueue)
	ar, ok := m.slot.Take()
	if !ok {
		return request{}, false
	}
	return request{stream: ar.Stream, nominal: ar.Release}, true
}

type simulator struct {
	cfg     Config
	eng     des.Engine
	rng     *rand.Rand
	masters []masterState
	tsdr    map[byte]Ticks
	res     Result
}

// simPool recycles simulators across runs: the event calendar, queue
// and frame storage, the RNG and the tsdr map survive, so a steady
// state simulation allocates only what escapes into its Result.
// (*simulator).reset re-arms every field, so pooled state can never
// leak into another run's outcome — results stay a pure function of
// the Config.
var simPool = sync.Pool{
	New: func() any {
		s := &simulator{}
		// One dispatch closure per pooled simulator, bound once.
		s.eng.SetDispatch(s.dispatch)
		return s
	},
}

// Simulate runs the configured network and returns per-stream and
// per-master statistics.
func Simulate(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := simPool.Get().(*simulator)
	s.reset(cfg)

	// Schedule stream releases.
	for i := range s.masters {
		m := &s.masters[i]
		for si := range m.cfg.Streams {
			s.scheduleReleases(m, si)
		}
	}

	// Token starts at the first master at t = 0.
	s.eng.SchedulePayload(0, 0, des.Payload{Kind: evToken, X: 0})

	s.eng.Run(cfg.Horizon)
	s.censorPending()

	for i := range s.masters {
		s.res.PerMaster[i] = s.masters[i].stats
	}
	res := s.res
	s.release()
	simPool.Put(s)
	return res, nil
}

// release drops every reference to caller- or result-owned memory
// before the simulator returns to the pool, so pooling never pins a
// Config or a returned Result.
func (s *simulator) release() {
	s.cfg = Config{}
	s.res = Result{}
	for i := range s.masters {
		m := &s.masters[i]
		m.cfg = MasterConfig{}
		m.stats = MasterStats{}
		m.inflight = request{}
		m.stackHigh = m.stackHigh[:0]
		m.highHead = 0
		m.stackLow = m.stackLow[:0]
		m.lowHead = 0
	}
}

// reset re-arms the pooled simulator for cfg.
func (s *simulator) reset(cfg Config) {
	s.cfg = cfg
	s.eng.Reset()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed)
	}
	if s.tsdr == nil {
		s.tsdr = make(map[byte]Ticks, len(cfg.Slaves))
	} else {
		clear(s.tsdr)
	}
	for _, sl := range cfg.Slaves {
		s.tsdr[sl.Addr] = sl.TSDR
	}
	s.res = Result{
		Horizon:   cfg.Horizon,
		PerMaster: make([]MasterStats, len(cfg.Masters)),
	}
	if cap(s.masters) < len(cfg.Masters) {
		s.masters = make([]masterState, len(cfg.Masters))
	}
	s.masters = s.masters[:len(cfg.Masters)]
	for i := range s.masters {
		s.masters[i].reset(i, cfg.Masters[i])
	}
}

// dispatch routes payload events; it is the engine's single event
// handler.
func (s *simulator) dispatch(p des.Payload) {
	switch p.Kind {
	case evArrival:
		s.onArrival(&s.masters[p.X], int(p.Y), p.A)
	case evToken:
		s.onTokenArrival(&s.masters[p.X])
	case evCycleDone:
		s.onCycleDone(&s.masters[p.X], int(p.Y), p.A, int64(p.Z), p.Flags)
	case evGapDone:
		m := &s.masters[p.X]
		if p.Flags&flagOverrun != 0 {
			m.stats.TTHOverruns++
		}
		s.step(m)
	}
}

// scheduleReleases pushes every release of stream si before the
// horizon onto the calendar, release n before release n+1. Streams with
// an explicit Releases list follow it verbatim (no synthetic jitter:
// the listed instants are real arrival times); otherwise the periodic
// Offset + n·Period pattern applies, saturating instead of wrapping,
// and jitter is drawn only for a release inside the horizon.
// Readiness is the event time itself, so the payload only carries the
// nominal release.
func (s *simulator) scheduleReleases(m *masterState, si int) {
	st := m.cfg.Streams[si]
	for n := Ticks(0); ; n++ {
		var nominal Ticks
		switch {
		case st.Releases == nil:
			nominal = timeunit.AddSat(st.Offset, timeunit.MulSat(n, st.Period))
		case n < Ticks(len(st.Releases)):
			nominal = st.Releases[n]
		default:
			return
		}
		if nominal >= s.cfg.Horizon {
			return
		}
		var jit Ticks
		if st.Releases == nil && st.Jitter > 0 {
			switch s.cfg.Jitter {
			case JitterRandom:
				jit = Ticks(s.rng.Int63n(int64(st.Jitter) + 1))
			case JitterAdversarial:
				if n == 0 {
					jit = st.Jitter
				}
			}
		}
		s.eng.SchedulePayload(timeunit.AddSat(nominal, jit), 0, des.Payload{
			Kind: evArrival, X: int32(m.idx), Y: int32(si), A: nominal,
		})
	}
}

// onArrival delivers a released request into the master's queues.
func (s *simulator) onArrival(m *masterState, si int, nominal Ticks) {
	st := m.cfg.Streams[si]
	m.stats.PerStream[si].Released++
	if st.High {
		if m.cfg.Dispatcher == ap.FCFS {
			m.stackHigh = append(m.stackHigh, request{stream: si, nominal: nominal})
		} else {
			m.apQueue.Push(ap.Request{
				Stream:      si,
				Release:     nominal,
				Ready:       s.eng.Now(),
				RelDeadline: st.Deadline,
				AbsDeadline: timeunit.AddSat(nominal, st.Deadline),
			})
			m.slot.Refill(m.apQueue)
		}
	} else {
		m.stackLow = append(m.stackLow, request{stream: si, nominal: nominal})
	}
}

// onTokenArrival implements the paper's run-time listing at station k.
func (s *simulator) onTokenArrival(m *masterState) {
	now := s.eng.Now()
	trr := now - m.lastArrival
	m.lastArrival = now
	m.stats.TokenArrivals++
	if !m.firstArrival {
		if trr > m.stats.WorstTRR {
			m.stats.WorstTRR = trr
		}
		m.stats.SumTRR += trr
	}
	m.firstArrival = false

	m.tokenArrival = now
	m.tth = s.cfg.TTR - trr
	if m.tth <= 0 {
		m.stats.LateTokens++
	}
	m.visits++
	m.phase = phaseFirstHigh
	s.step(m)
}

// remainingTTH returns the token-holding budget left at the current
// instant (negative when the token was late or the budget is spent).
func (s *simulator) remainingTTH(m *masterState) Ticks {
	return m.tth - (s.eng.Now() - m.tokenArrival)
}

// step advances the master's token-holding state machine; it runs at
// token arrival and after each message-cycle completion.
func (s *simulator) step(m *masterState) {
	switch m.phase {
	case phaseFirstHigh:
		// IF waiting high-priority messages: execute ONE cycle,
		// regardless of lateness (the rule the queuing-delay bound
		// Q = nh·T_cycle rests on).
		m.phase = phaseHigh
		if r, ok := m.popHigh(); ok {
			s.executeCycle(m, r, true)
			return
		}
		s.step(m)
	case phaseHigh:
		// WHILE TTH > 0 AND pending high cycles (tested at cycle start).
		if s.remainingTTH(m) > 0 && m.highPending() {
			if r, ok := m.popHigh(); ok {
				s.executeCycle(m, r, true)
				return
			}
		}
		m.phase = phaseGap
		s.step(m)
	case phaseGap:
		m.phase = phaseLow
		if s.cfg.GapFactor > 0 && m.visits%int64(s.cfg.GapFactor) == 0 &&
			s.remainingTTH(m) > 0 {
			s.executeGapPoll(m)
			return
		}
		s.step(m)
	case phaseLow:
		if s.remainingTTH(m) > 0 && m.lowHead < len(m.stackLow) {
			r := m.stackLow[m.lowHead]
			m.lowHead++
			if m.lowHead == len(m.stackLow) {
				m.stackLow = m.stackLow[:0]
				m.lowHead = 0
			}
			s.executeCycle(m, r, false)
			return
		}
		s.passToken(m)
	}
}

// executeCycle transmits one message cycle (with fault-injected retries)
// and schedules the completion event. The completion outcome (retries,
// failure, TTH overrun) is fully determined here, so it travels in the
// event payload instead of a closure.
func (s *simulator) executeCycle(m *masterState, r request, high bool) {
	st := m.cfg.Streams[r.stream]
	bus := s.cfg.Bus
	action, response := m.action[r.stream], m.response[r.stream]

	remainingAtStart := s.remainingTTH(m)

	var dur Ticks
	retries := 0
	failed := false
	for {
		attemptFails := s.cfg.Faults.CycleFailProb > 0 &&
			s.rng.Float64() < s.cfg.Faults.CycleFailProb
		if !attemptFails {
			dur += bus.CycleTicks(action, response, s.tsdr[st.Slave])
			break
		}
		dur += bus.FailedAttemptTicks(action)
		if retries >= bus.MaxRetry {
			failed = true
			break
		}
		retries++
	}

	if high {
		m.stats.HighCycles++
	} else {
		m.stats.LowCycles++
	}

	m.inflight = r
	m.hasInflight = true
	var flags uint8
	if failed {
		flags |= flagFailed
	}
	if remainingAtStart > 0 && dur > remainingAtStart {
		flags |= flagOverrun
	}
	s.eng.SchedulePayloadAfter(dur, des.Payload{
		Kind: evCycleDone, X: int32(m.idx), Y: int32(r.stream),
		A: r.nominal, Z: int32(retries), Flags: flags,
	})
}

// onCycleDone finishes a message cycle: stats, trace, deadline
// accounting, then the next state-machine step.
func (s *simulator) onCycleDone(m *masterState, stream int, nominal Ticks, retries int64, flags uint8) {
	m.hasInflight = false
	st := m.cfg.Streams[stream]
	stats := &m.stats.PerStream[stream]
	stats.Retries += retries
	if flags&flagOverrun != 0 {
		m.stats.TTHOverruns++
	}
	failed := flags&flagFailed != 0
	if st.Trace {
		stats.Trace = append(stats.Trace,
			CompletionRecord{Release: nominal, Completed: s.eng.Now(), Failed: failed})
	}
	if failed {
		stats.Failed++
	} else {
		stats.Completed++
		resp := s.eng.Now() - nominal
		if resp > stats.WorstResponse {
			stats.WorstResponse = resp
		}
		stats.TotalResponse += resp
		if s.eng.Now() > timeunit.AddSat(nominal, st.Deadline) {
			stats.Missed++
		}
	}
	s.step(m)
}

// executeGapPoll performs one FDL-Status request on the next GAP
// address (DIN 19245 ring maintenance). A station there answers with an
// SD1 status frame; an unused address costs a full slot-time timeout.
// Like any message cycle it runs to completion once started.
func (s *simulator) executeGapPoll(m *masterState) {
	// Advance through the GAP: addresses strictly between this master
	// and its ring successor (wrapping at 127).
	succ := s.masters[(m.idx+1)%len(s.masters)].cfg.Addr
	next := m.nextGap
	if next == 0 || next == succ {
		next = m.cfg.Addr + 1
	}
	if next == succ {
		next = m.cfg.Addr + 1 // degenerate GAP (adjacent addresses)
	}
	m.nextGap = (next + 1) % 128

	// The status request and a station's status response are both SD1.
	status := fdl.Frame{Kind: fdl.KindSD1}
	var dur Ticks
	if tsdr, ok := s.tsdr[next]; ok {
		dur = s.cfg.Bus.CycleTicks(status, status, tsdr)
	} else {
		dur = s.cfg.Bus.FailedAttemptTicks(status)
	}
	remainingAtStart := s.remainingTTH(m)
	m.stats.GapPolls++
	var flags uint8
	if remainingAtStart > 0 && dur > remainingAtStart {
		flags |= flagOverrun
	}
	s.eng.SchedulePayloadAfter(dur, des.Payload{
		Kind: evGapDone, X: int32(m.idx), Flags: flags,
	})
}

// passToken transmits the token frame to the ring successor.
func (s *simulator) passToken(m *masterState) {
	s.res.TokenPasses++
	next := (m.idx + 1) % len(s.masters)
	s.eng.SchedulePayloadAfter(s.cfg.Bus.TokenPassTicks(), des.Payload{
		Kind: evToken, X: int32(next),
	})
}

// censorPending accounts for requests still queued at the horizon.
func (s *simulator) censorPending() {
	h := s.cfg.Horizon
	for i := range s.masters {
		m := &s.masters[i]
		censor := func(stream int, nominal Ticks) {
			st := &m.stats.PerStream[stream]
			st.Censored++
			resp := h - nominal
			if resp > st.WorstResponse {
				st.WorstResponse = resp
			}
			if h > timeunit.AddSat(nominal, m.cfg.Streams[stream].Deadline) {
				st.Missed++
			}
		}
		if m.hasInflight {
			censor(m.inflight.stream, m.inflight.nominal)
		}
		for _, r := range m.stackHigh[m.highHead:] {
			censor(r.stream, r.nominal)
		}
		for _, r := range m.stackLow[m.lowHead:] {
			censor(r.stream, r.nominal)
		}
		if m.cfg.Dispatcher != ap.FCFS && m.apQueue != nil {
			if r, ok := m.slot.Take(); ok {
				censor(r.Stream, r.Release)
			}
			for {
				r, ok := m.apQueue.Pop()
				if !ok {
					break
				}
				censor(r.Stream, r.Release)
			}
		}
	}
}
