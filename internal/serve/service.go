package serve

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// ServiceCounters is a snapshot of the live runtime's accounting. Every Do
// call ends in exactly one of Served, Shed, Expired, Unavailable or Closed.
type ServiceCounters struct {
	Served, Shed, Expired, Unavailable int64
	Retries, Hedges, Fallbacks, Recals int64
	// SuspectServed counts requests answered with a verify-failed (suspect)
	// vector because retries, hedges, or the deadline ran out — served
	// rather than failed, but flagged so operators can see how much of the
	// traffic got an unverified answer.
	SuspectServed int64
	// Batches counts multi-request coalesced dispatches; Coalesced counts
	// the requests they carried (so Coalesced/Batches is the realized batch
	// size). Single-request dispatches appear in neither.
	Batches, Coalesced int64
	// Closed counts Do calls answered ErrClosed: refused after Close, or
	// still unanswered when Close ran.
	Closed int64
}

// Service is the live goroutine driver of the dispatch core. The core runs
// under one mutex; Infer, Canary, Recalibrate and the fallback run on
// goroutines outside it and report back as events, and every timer (hedge,
// retry, gather, canary, deadline) is armed on the service's obs.Clock, so
// a Manual clock drives it exactly. Requests are served under the same
// policy the R2 tables measure. Two events exist only here, because the
// simulator models them as virtual time: the caller's deadline (the
// request gets the suspect read in hand or ErrDeadline, and an attempt
// that finishes later still updates Health), and the end of a canary
// round (the simulator books canary time as replica busy time instead).
type Service struct {
	mu   sync.Mutex
	core *core

	fbMu    sync.Mutex
	digital func(tensor.Vector) tensor.Vector

	// clock is the single source of every timestamp and timer: the wall
	// clock in production, a Manual clock in tests. start anchors core
	// time (seconds since service start); stop ends the timers armed on
	// the current clock.
	clock  obs.Clock
	start  time.Time
	stop   chan struct{}
	timers sync.WaitGroup // timer goroutines, which stop ends
	closed bool
	// pending holds the requests not yet answered, for Close.
	pending map[*request]struct{}
	// running counts the goroutines the service started whose work has
	// not yet reached the core: armed timers, inferences, fallbacks,
	// canary rounds and recalibrations.
	running int
}

// NewService starts the runtime. fallback, if non-nil and enabled by the
// policy, is the digital float path used when no replica is in rotation;
// it is serialized internally (golden nets cache layer state and are not
// reentrant). workers has no effect: work runs on one goroutine per
// operation.
func NewService(pol Policy, replicas []*Replica, fallback func(tensor.Vector) tensor.Vector, workers int) *Service {
	s := &Service{
		digital: fallback,
		clock:   obs.System,
		stop:    make(chan struct{}),
		pending: map[*request]struct{}{},
	}
	s.core = newCore(pol, replicas, s, fallback != nil)
	s.core.until = math.Inf(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start = s.clock.Now()
	s.core.start(0)
	return s
}

// SetClock injects the service's time source. Call before serving traffic;
// tests inject an obs.Manual clock for exact deadline semantics. Timers
// armed on the previous clock are dropped and the canary rounds re-armed.
func (s *Service) SetClock(c obs.Clock) {
	if c == nil {
		c = obs.System
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	close(s.stop)
	s.stop = make(chan struct{})
	s.clock = c
	s.start = c.Now()
	s.core.start(0)
}

// now is the core time: seconds since service start on the service clock.
func (s *Service) now() float64 { return s.clock.Now().Sub(s.start).Seconds() }

// Counters snapshots the runtime accounting.
func (s *Service) Counters() ServiceCounters {
	s.mu.Lock()
	m := s.core.m
	s.mu.Unlock()
	return ServiceCounters{
		Served: int64(m.Completed), Shed: int64(m.Shed),
		Expired: int64(m.Expired), Unavailable: int64(m.Unavailable),
		Retries: int64(m.Retries), Hedges: int64(m.Hedges),
		Fallbacks: int64(m.Fallbacks), Recals: int64(m.Recals),
		SuspectServed: int64(m.SuspectServed),
		Batches:       int64(m.Batches), Coalesced: int64(m.Coalesced),
		Closed: int64(m.Closed),
	}
}

// Do submits one inference and blocks for its result (or a shedding,
// deadline, unavailability or shutdown error). Safe for concurrent use.
func (s *Service) Do(x tensor.Vector) (tensor.Vector, error) {
	req := &request{x: x, want: -1, reply: make(chan result, 1)}
	s.mu.Lock()
	s.pending[req] = struct{}{}
	t := s.now()
	s.core.arrive(t, req)
	if !req.done {
		s.timer(req.deadline, func(t float64) { s.core.onDeadline(t, req) })
	}
	s.mu.Unlock()
	r := <-req.reply
	return r.y, r.err
}

// Close shuts the runtime down: timers stop, every unanswered request
// fails with ErrClosed, and later calls to Do are refused the same way.
// Close returns once the timer goroutines have exited. Operations already
// running on a replica or the fallback finish on their own, and their
// results are dropped.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
		t := s.now()
		s.core.closed = true
		for req := range s.pending {
			s.core.fail(t, req, ErrClosed)
		}
	}
	s.mu.Unlock()
	s.timers.Wait()
}

// deliver runs f as one core event at the current time, unless the
// service has closed.
func (s *Service) deliver(f func(t float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if !s.closed {
		f(s.now())
	}
}

func (s *Service) timer(at float64, f func(t float64)) {
	fired := s.clock.After(time.Duration((at - s.now()) * float64(time.Second)))
	stop := s.stop
	s.running++
	s.timers.Add(1)
	go func() {
		defer s.timers.Done()
		select {
		case <-fired:
		case <-stop: // closed, or armed on a clock SetClock replaced
			f = func(float64) {}
		}
		s.deliver(f)
	}()
}

func (s *Service) infer(t float64, rep *Replica, atts []*attempt) {
	rep.busy++
	s.running++
	verify := s.core.pol.VerifyReads
	go func() {
		rep.run(atts, verify)
		s.deliver(func(t float64) {
			rep.busy--
			if rep.busy == 0 && rep.canaryDue {
				// The canary round that came due mid-inference runs now,
				// before the completions below hand the replica more work.
				rep.canaryDue = false
				s.canary(t, rep)
			}
			for _, a := range atts {
				a.dur = t - a.start
				s.core.onDone(t, a)
			}
		})
	}()
}

func (s *Service) fallback(t float64, att *attempt) {
	s.running++
	go func() {
		s.fbMu.Lock()
		y := s.digital(att.req.x)
		s.fbMu.Unlock()
		s.deliver(func(t float64) {
			att.y, att.ok, att.dur = y, true, t-att.start
			s.core.onDone(t, att)
		})
	}()
}

// canary runs a round now on an idle replica, or once its inference
// finishes, so the round never waits on the replica's lock.
func (s *Service) canary(t float64, rep *Replica) {
	if rep.busy > 0 {
		rep.canaryDue = true
		return
	}
	rep.busy++
	s.running++
	go func() {
		div := rep.Canary()
		s.deliver(func(t float64) {
			rep.busy--
			s.core.onCanaryResult(t, rep, div)
			s.core.pump(t, rep) // the end of the round frees the replica
		})
	}()
}

func (s *Service) recal(t float64, rep *Replica) {
	s.running++
	go func() {
		_, div := rep.Recalibrate()
		s.deliver(func(t float64) { s.core.onRecalDone(t, rep, div) })
	}()
}

func (s *Service) answer(t float64, req *request, y tensor.Vector, err error) {
	delete(s.pending, req)
	req.reply <- result{y: y, err: err}
}
