package serve

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Errors a request can end with. Do returns them; the simulator counts
// them in Metrics.
var (
	// ErrShed means the bounded queue was full and the request was load-shed
	// on arrival.
	ErrShed = errors.New("serve: queue full, request shed")
	// ErrDeadline means the request missed its completion deadline.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrUnavailable means no replica was in rotation and no fallback path
	// was configured.
	ErrUnavailable = errors.New("serve: no replica in rotation")
	// ErrClosed means the service has shut down.
	ErrClosed = errors.New("serve: service closed")
)

// request is one inference request's lifecycle state inside the core.
type request struct {
	x        tensor.Vector
	want     int // digital-reference class; -1 for unlabelled live traffic
	arrive   float64
	deadline float64
	attempts int
	backoff  float64
	inFlight int
	hedged   bool
	done     bool
	// suspect is the latest verify-failed read, served if the caller's
	// deadline fires before a verified one arrives.
	suspect tensor.Vector
	span    *obs.Span
	reply   chan result // live driver only
}

type result struct {
	y   tensor.Vector
	err error
}

// attempt is one inference of one request on one replica, or on the
// digital fallback when rep is nil. The driver fills y, ok and dur before
// it delivers the attempt's completion.
type attempt struct {
	req     *request
	rep     *Replica
	start   float64
	running bool
	y       tensor.Vector
	ok      bool
	dur     float64 // service time Health records
	span    *obs.Span
}

// driver carries out the core's actions. The simulator runs each inline at
// the event's virtual instant; the live service runs the slow ones on
// goroutines and feeds their completions back as events.
type driver interface {
	// infer runs one dispatch on rep: a single attempt, or a coalesced
	// block read as one batch. Each attempt later completes through
	// core.onDone.
	infer(t float64, rep *Replica, atts []*attempt)
	// fallback runs the digital float path; it completes through onDone.
	fallback(t float64, att *attempt)
	// timer runs f as an event at time at.
	timer(at float64, f func(t float64))
	// canary runs one canary round; its divergence reaches onCanaryResult.
	canary(t float64, rep *Replica)
	// recal reprograms rep; the fresh divergence reaches onRecalDone.
	recal(t float64, rep *Replica)
	// answer hands req its final result. The core's terminal-once guard
	// calls it once per request.
	answer(t float64, req *request, y tensor.Vector, err error)
}

// core is the single-threaded serving policy shared by both drivers:
// admission, replica choice, dispatch, batching, hedging, retry,
// completion, canary and recalibration. It only ever runs inside one event
// at a time — the simulator's loop or the live service's mutex.
type core struct {
	pol    Policy
	d      driver
	reps   []*Replica
	queue  []*request
	rr     uint64
	tracer *obs.Tracer
	// until bounds canary re-arming: the simulator stops probing after the
	// arrival window so its event stream runs dry; the live service never.
	until float64
	// keepLatencies records every completion latency (the simulator's
	// exact quantiles); the live service keeps only counters.
	keepLatencies bool
	// gather is the replica reserved for an open batch gather, gatherGen
	// the generation its timer must match.
	gather    *Replica
	gatherGen int
	// closed refuses new arrivals once the live service shut down.
	closed bool
	m      Metrics
	peakQ  int // queue-depth high-water mark
}

// newCore builds the core; hasFallback reports whether the driver has a
// digital fallback path at all.
func newCore(pol Policy, replicas []*Replica, d driver, hasFallback bool) *core {
	pol.Fallback = pol.Fallback && hasFallback
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = 1
	}
	if pol.QueueCap <= 0 {
		pol.QueueCap = 64
	}
	return &core{pol: pol, d: d, reps: replicas}
}

// start arms the canary rounds, staggered across the pool so canary busy
// time never takes every replica out of service at the same instant.
func (c *core) start(t float64) {
	if !c.pol.Watchdog || c.pol.CanaryEvery <= 0 {
		return
	}
	for i, r := range c.reps {
		offset := c.pol.CanaryEvery * float64(i+1) / float64(len(c.reps))
		c.d.timer(t+offset, func(t float64) { c.onCanary(t, r) })
	}
}

// arrive admits a new request.
func (c *core) arrive(t float64, req *request) {
	c.m.Offered++
	if c.closed {
		c.fail(t, req, ErrClosed)
		return
	}
	req.arrive = t
	req.deadline = t + c.pol.Deadline
	req.backoff = c.pol.RetryBackoff
	req.span = c.tracer.Start("request", t)
	c.admit(t, req)
}

// admit routes a request: dispatch if a replica is free, fall back if the
// whole pool is down, queue if there is room, shed otherwise. A queued
// request that fills the block of an open gather closes it.
func (c *core) admit(t float64, req *request) {
	rep, allDown := c.pick(t, nil)
	switch {
	case rep != nil:
		c.dispatch(t, rep, false, req)
	case allDown:
		c.serveFallback(t, req)
	default:
		if c.enqueue(t, req) && c.gather != nil && len(c.queue) >= c.batchMax() {
			c.closeGather(t)
		}
	}
}

func (c *core) enqueue(t float64, req *request) bool {
	if len(c.queue) >= c.pol.QueueCap {
		c.fail(t, req, ErrShed)
		return false
	}
	req.span.Stage("queue", t)
	c.queue = append(c.queue, req)
	if len(c.queue) > c.peakQ {
		c.peakQ = len(c.queue)
	}
	return true
}

// pick returns the next free in-rotation replica, healthy first. allDown
// reports whether every replica is out of rotation entirely (quarantined
// or dead) — the fallback condition, distinct from "merely busy".
func (c *core) pick(t float64, avoid *Replica) (best *Replica, allDown bool) {
	n := len(c.reps)
	start := int(c.rr % uint64(n))
	c.rr = uint64((start + 1) % n)
	allDown = true
	var degraded *Replica
	for i := 0; i < n; i++ {
		r := c.reps[(start+i)%n]
		if r.dead || r.Health.State() == Quarantined {
			continue
		}
		allDown = false
		if r == avoid || r == c.gather || !r.free(t) {
			continue
		}
		switch r.Health.State() {
		case Healthy:
			return r, false
		case Degraded:
			if degraded == nil {
				degraded = r
			}
		}
	}
	return degraded, allDown
}

func (c *core) serveFallback(t float64, req *request) {
	if !c.pol.Fallback {
		c.fail(t, req, ErrUnavailable)
		return
	}
	c.m.Fallbacks++
	req.span.Stage("fallback", t)
	req.inFlight++
	c.d.fallback(t, &attempt{req: req, start: t, running: true})
}

// dispatch sends one attempt of each request to rep: a lone request, or a
// coalesced block read as one batch whose members complete with their own
// verify verdicts. A lone first attempt under hedging arms the hedge
// timer, which acts only if the attempt is still running when it fires.
// Blocks are never hedged: a block already amortizes its dispatch.
func (c *core) dispatch(t float64, rep *Replica, isHedge bool, reqs ...*request) {
	if len(reqs) > 1 {
		c.m.Batches++
		c.m.Coalesced += len(reqs)
	}
	name := "attempt"
	if isHedge {
		name = "hedge-attempt"
	}
	for _, req := range reqs {
		req.attempts++
		req.inFlight++
		if !isHedge {
			req.span.Stage("dispatch", t)
		}
	}
	atts := make([]*attempt, len(reqs))
	for i, req := range reqs {
		atts[i] = &attempt{req: req, rep: rep, start: t, running: true, span: req.span.Child(name, t)}
	}
	c.d.infer(t, rep, atts)
	if req := reqs[0]; len(reqs) == 1 && c.pol.Hedge && !isHedge && !req.hedged && len(c.reps) > 1 {
		d := rep.Health.HedgeDelay(c.pol.HedgeQuantile, c.pol.HedgeMin, c.pol.Deadline)
		c.d.timer(t+d, func(t float64) { c.onHedge(t, atts[0]) })
	}
}

func (c *core) onHedge(t float64, att *attempt) {
	req := att.req
	if !att.running || req.done || req.hedged {
		return
	}
	second, _ := c.pick(t, att.rep)
	if second == nil {
		return
	}
	req.hedged = true
	c.m.Hedges++
	req.span.Stage("hedge", t)
	c.dispatch(t, second, true, req)
}

// onDone folds one finished attempt into its replica's health and its
// request's disposition, then hands the replica more work. Health sees
// every attempt, including one that finishes after its request ended.
func (c *core) onDone(t float64, att *attempt) {
	req := att.req
	req.inFlight--
	att.running = false
	if att.rep != nil {
		att.rep.Health.ObserveServe(att.dur, !att.ok)
	}
	if !att.ok {
		// The verify read disagreed with the forward read: the stage where
		// temporal redundancy caught (or at least suspected) a transient.
		req.span.Stage("verify-read", t)
		att.span.SetErr("verify-mismatch")
		req.suspect = att.y
	}
	att.span.End(t)
	if !req.done {
		switch {
		case att.ok:
			c.complete(t, req, att.y)
		case req.inFlight > 0:
			// A hedge is still running; let it race the retry decision.
		case req.attempts < c.pol.MaxAttempts && t+req.backoff < req.deadline:
			c.m.Retries++
			c.d.timer(t+req.backoff, func(t float64) { c.onRetry(t, req) })
			req.backoff *= 2
		default:
			// Out of attempts (or time): serve the suspect read rather
			// than nothing.
			c.m.SuspectServed++
			c.complete(t, req, att.y)
		}
	}
	if att.rep != nil {
		c.pump(t, att.rep)
	}
}

func (c *core) onRetry(t float64, req *request) {
	if req.done {
		return
	}
	if t > req.deadline {
		c.fail(t, req, ErrDeadline)
		return
	}
	req.span.Stage("retry", t)
	c.admit(t, req)
}

// onDeadline is the live driver's event for the caller's deadline: the
// request gets the suspect read in hand, or ErrDeadline.
func (c *core) onDeadline(t float64, req *request) {
	if req.done {
		return
	}
	if req.suspect != nil {
		c.m.SuspectServed++
		c.complete(req.deadline, req, req.suspect)
		return
	}
	c.fail(t, req, ErrDeadline)
}

// complete ends req with y, once: a second disposition is counted as a
// violation and never reaches the driver.
func (c *core) complete(t float64, req *request, y tensor.Vector) {
	if !c.m.Terminal(&req.done) {
		return
	}
	c.m.Completed++
	if c.keepLatencies {
		c.m.AddLatency(t - req.arrive)
	}
	correct := req.want >= 0 && y.ArgMax() == req.want
	if correct {
		c.m.Correct++
	}
	if t <= req.deadline {
		if correct {
			c.m.Good++
		}
	} else {
		c.m.Late++
		req.span.SetErr("late")
	}
	req.span.Stage("complete", t)
	req.span.End(t)
	c.d.answer(t, req, y, nil)
}

// fail ends req with err, counting it as its failed disposition, once,
// like complete.
func (c *core) fail(t float64, req *request, err error) {
	if !c.m.Terminal(&req.done) {
		return
	}
	var why string
	switch err {
	case ErrShed:
		c.m.Shed++
		why = "shed"
	case ErrDeadline:
		c.m.Expired++
		why = "expired"
	case ErrUnavailable:
		c.m.Unavailable++
		why = "unavailable"
	case ErrClosed:
		c.m.Closed++
		why = "closed"
	}
	req.span.SetErr(why)
	req.span.End(t)
	c.d.answer(t, req, nil, err)
}

// serving reports whether rep may take queued work now.
func (c *core) serving(t float64, rep *Replica) bool {
	return !rep.dead && !rep.recalling && rep.free(t) && rep != c.gather &&
		rep.Health.State() != Quarantined
}

func (c *core) batchMax() int { return max(c.pol.BatchMax, 1) }

// gathers reports whether a short block waits BatchWait for more arrivals.
func (c *core) gathers() bool { return c.pol.BatchMax > 1 && c.pol.BatchWait > 0 }

// pump hands a freed replica queued work: straight away, or after a
// gather wait when the queue holds a short block and no gather is open.
func (c *core) pump(t float64, rep *Replica) {
	if !c.serving(t, rep) {
		return
	}
	if c.gathers() && c.gather == nil && len(c.queue) > 0 && len(c.queue) < c.batchMax() {
		c.openGather(t, rep)
		return
	}
	c.drain(t, rep)
}

// openGather reserves rep for a gather. The wait is carved from the head
// request's deadline, so waiting never spends time that request needs.
func (c *core) openGather(t float64, rep *Replica) {
	wait := min(c.pol.BatchWait, c.queue[0].deadline-t)
	if wait <= 0 {
		c.drain(t, rep)
		return
	}
	c.gather = rep
	c.gatherGen++
	gen := c.gatherGen
	c.d.timer(t+wait, func(t float64) {
		if gen == c.gatherGen {
			c.closeGather(t)
		}
	})
}

// closeGather dispatches the gathered block, then offers what is left to
// the other free replicas.
func (c *core) closeGather(t float64) {
	rep := c.gather
	c.gather = nil
	c.gatherGen++
	if c.serving(t, rep) {
		c.drain(t, rep)
	}
	for _, r := range c.reps {
		c.pump(t, r)
	}
}

// drain hands rep the oldest still-live queued requests, up to BatchMax.
// Requests whose deadline passed in the queue expire here, before
// dispatch, so a stale request never consumes replica time.
func (c *core) drain(t float64, rep *Replica) {
	var batch []*request
	for len(c.queue) > 0 && len(batch) < c.batchMax() {
		req := c.queue[0]
		c.queue = c.queue[1:]
		if req.done {
			continue
		}
		if t > req.deadline {
			c.fail(t, req, ErrDeadline)
			continue
		}
		batch = append(batch, req)
	}
	// A lone survivor is an ordinary dispatch, so BatchMax=1 (and any block
	// that coalesces to one) is identical to the unbatched service.
	if len(batch) > 0 {
		c.dispatch(t, rep, false, batch...)
	}
}

func (c *core) onCanary(t float64, rep *Replica) {
	if rep.dead || rep.recalling {
		return
	}
	if t <= c.until {
		c.d.timer(t+c.pol.CanaryEvery, func(t float64) { c.onCanary(t, rep) })
	}
	if rep.Health.State() == Quarantined {
		return
	}
	c.d.canary(t, rep)
}

// onCanaryResult feeds one canary round to the breaker; a replica it
// quarantines is pulled for recalibration.
func (c *core) onCanaryResult(t float64, rep *Replica, div float64) {
	if rep.Health.ObserveCanary(div) == Quarantined {
		c.m.Quarantines++
		c.startRecal(t, rep)
	}
}

func (c *core) startRecal(t float64, rep *Replica) {
	rep.recalling = true
	c.m.Recals++
	c.d.recal(t, rep)
}

// onRecalDone re-admits a replica whose fresh canary passes, retries the
// recalibration otherwise, and abandons the replica after
// RecalMaxRetries failures.
func (c *core) onRecalDone(t float64, rep *Replica, div float64) {
	rep.recalling = false
	if div <= c.pol.ReadmitThresh {
		rep.recalTries = 0
		c.m.Readmits++
		rep.Health.Readmit(div)
		rep.freeAt = t
		c.pump(t, rep)
		if t <= c.until && c.pol.CanaryEvery > 0 {
			c.d.timer(t+c.pol.CanaryEvery, func(t float64) { c.onCanary(t, rep) })
		}
		return
	}
	if rep.recalTries < c.pol.RecalMaxRetries {
		rep.recalTries++
		c.startRecal(t, rep)
		return
	}
	// Abandoned: the replica stays quarantined for good.
	rep.dead = true
}
