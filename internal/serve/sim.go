package serve

import (
	"math"

	"repro/internal/obs"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// LatencyModel maps the simulator's hardware operations onto virtual-time
// durations. The analog compute itself is executed for real (the crossbar
// ops run, faults inject, answers are right or wrong on their own merits);
// only elapsed time is modeled, which is what makes the event loop
// deterministic while still producing honest latency distributions.
type LatencyModel struct {
	// Base is the mean single-read service time in seconds; each attempt
	// draws Base·exp(N(0, Jitter)) (lognormal), and with probability
	// TailProb the draw is further multiplied by TailMult — the straggler
	// tail hedged reads exist to cut.
	Base     float64
	Jitter   float64
	TailProb float64
	TailMult float64
	// VerifyMult scales attempts that read twice (temporal redundancy).
	VerifyMult float64
	// BatchPerExtra is the marginal service-time cost of each extra sample
	// in a coalesced block, as a fraction of the single-attempt draw: a
	// K-request block costs attempt·(1 + BatchPerExtra·(K−1)). Values below
	// 1 model the periphery/dispatch amortization batched MVMs buy; the
	// field is consulted only by batched dispatches, so arms with batching
	// off are unaffected.
	BatchPerExtra float64
	// CanaryPerVec is the added replica busy time per canary vector.
	CanaryPerVec float64
	// DigitalMult scales Base for the digital float fallback path.
	DigitalMult float64
	// PulseTime and ReadTime price a recalibration pass from its actual
	// pulse and detect-read counts; RecalFloor is its minimum duration.
	PulseTime  float64
	ReadTime   float64
	RecalFloor float64
}

// DefaultLatencyModel is the R2 timing: ~1 ms reads against an 8 ms
// deadline, a 4% straggler tail an order of magnitude slower, and
// recalibrations costing tens of milliseconds — long enough that pulling a
// replica matters, short enough that it returns within the run.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		Base:       1e-3,
		Jitter:     0.25,
		TailProb:   0.04,
		TailMult:   9,
		VerifyMult: 1.8,
		// One extra coalesced sample costs a quarter of a lone read: the
		// block pays periphery once and streams the extra MVMs through the
		// already-open tiles.
		BatchPerExtra: 0.25,
		CanaryPerVec:  0.5e-3,
		DigitalMult:   3,
		PulseTime:     2e-7,
		ReadTime:      2e-6,
		RecalFloor:    0.05,
	}
}

// AttemptDuration draws one service-time sample from the model — the
// shared hot path of this simulator and the fleet simulator in
// internal/cluster, which prices node-local service time with the same
// distribution.
func (m LatencyModel) AttemptDuration(rng *rngutil.Source, verify bool) float64 {
	d := m.Base * math.Exp(rng.Normal(0, m.Jitter))
	if m.TailProb > 0 && rng.Bernoulli(m.TailProb) {
		d *= m.TailMult
	}
	if verify {
		d *= m.VerifyMult
	}
	return d
}

func (m LatencyModel) recal(st RecalStats) float64 {
	d := float64(st.Pulses)*m.PulseTime + float64(st.DetectReads)*m.ReadTime
	if d < m.RecalFloor {
		d = m.RecalFloor
	}
	return d
}

// SimRequest is one inference request of the campaign stream: an input and
// the digital-reference answer (argmax class) it is graded against.
type SimRequest struct {
	X    tensor.Vector
	Want int
}

// SimConfig drives one arm of the campaign through the virtual-time
// simulator.
type SimConfig struct {
	Policy Policy
	Lat    LatencyModel
	// Duration is the arrival window in virtual seconds; Rate the Poisson
	// arrival rate per second. Requests are drawn from the stream in order,
	// wrapping around.
	Duration float64
	Rate     float64
	Requests []SimRequest
	// Fallback is the digital float path (nil disables it regardless of
	// policy).
	Fallback func(tensor.Vector) tensor.Vector
	// RNG seeds the arrival and latency streams. Use the same seed across
	// arms (common random numbers) so policy differences, not draw
	// differences, separate them.
	RNG *rngutil.Source
	// Obs, when non-nil, accumulates the arm's counters and virtual-time
	// latency distribution into the shared registry; Tracer, when non-nil,
	// records one span per request with its lifecycle stages (queue →
	// dispatch → hedge → verify-read → complete). Both are fed exclusively
	// from virtual time, so their dumps are byte-identical at any -workers
	// value.
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// event kinds, in tie-break-irrelevant order (seq breaks ties).
const (
	evArrival = iota
	evDone
	evHedge
	evRetry
	evCanary
	evRecalDone
)

type simEvent struct {
	kind int
	req  *simReq
	rep  *simReplica
	att  *simAttempt
}

type simReq struct {
	SimRequest
	arrive   float64
	deadline float64
	attempts int
	backoff  float64
	inFlight int
	hedged   bool
	done     bool
	span     *obs.Span
}

type simAttempt struct {
	req     *simReq
	rep     *simReplica
	dur     float64
	correct bool
	ok      bool
	span    *obs.Span
}

type simReplica struct {
	*Replica
	freeAt     float64
	recalTries int
	recalling  bool
	dead       bool
	lastDiv    float64 // canary divergence measured by the last recal
}

// sim is the virtual-time discrete-event driver sharing the live Service's
// Policy/Health/Pipeline machinery. Single-threaded, heap-ordered by
// (time, seq): bit-identical tables at a fixed seed.
type sim struct {
	cfg    SimConfig
	reps   []*simReplica
	queue  []*simReq
	events EventQueue[simEvent]
	rr     int
	arrRN  *rngutil.Source
	latRN  *rngutil.Source
	next   int // next request-stream index
	m      Metrics
	peakQ  int // queue-depth high-water mark
}

// RunSim drives one policy arm over the replica pool and returns its
// metrics. The replicas' pipelines are consumed (faults accumulate);
// rebuild them per arm.
func RunSim(cfg SimConfig, replicas []*Replica) Metrics {
	if cfg.Policy.MaxAttempts <= 0 {
		cfg.Policy.MaxAttempts = 1
	}
	if cfg.Policy.QueueCap <= 0 {
		cfg.Policy.QueueCap = 64
	}
	s := &sim{
		cfg:   cfg,
		arrRN: cfg.RNG.Child("arrivals"),
		latRN: cfg.RNG.Child("latency"),
	}
	for _, r := range replicas {
		s.reps = append(s.reps, &simReplica{Replica: r})
	}
	s.push(s.nextArrival(0), evArrival, nil, nil, nil)
	if cfg.Policy.Watchdog && cfg.Policy.CanaryEvery > 0 {
		// Stagger the probes across the pool so canary busy time never
		// takes every replica out of service at the same instant.
		for i, r := range s.reps {
			offset := cfg.Policy.CanaryEvery * float64(i+1) / float64(len(s.reps))
			s.push(offset, evCanary, nil, r, nil)
		}
	}
	for s.events.Len() > 0 {
		t, e := s.events.Pop()
		switch e.kind {
		case evArrival:
			s.onArrival(t)
		case evDone:
			s.onDone(t, e.att)
		case evHedge:
			s.onHedge(t, e.req, e.rep)
		case evRetry:
			s.onRetry(t, e.req)
		case evCanary:
			s.onCanary(t, e.rep)
		case evRecalDone:
			s.onRecalDone(t, e.rep)
		}
	}
	// Anything still queued when the event stream ran dry can never be
	// served: it expired waiting.
	for _, q := range s.queue {
		if !q.done {
			s.m.Expired++
			q.span.SetErr("expired")
			q.span.End(q.deadline)
		}
	}
	s.exportObs()
	return s.m
}

// exportObs folds the arm's final accounting into the shared registry. Arms
// run sequentially, so accumulation order — and therefore the stable dump —
// is deterministic.
func (s *sim) exportObs() {
	r := s.cfg.Obs
	if r == nil {
		return
	}
	add := func(name, help string, v int) {
		r.Counter(name, help).Add(int64(v))
	}
	add("serve_sim_offered_total", "requests offered to the simulated service", s.m.Offered)
	add("serve_sim_shed_total", "requests load-shed at a full queue", s.m.Shed)
	add("serve_sim_expired_total", "requests that missed their deadline before completing", s.m.Expired)
	add("serve_sim_late_total", "requests completed after their deadline", s.m.Late)
	add("serve_sim_unavailable_total", "requests with no replica in rotation and no fallback", s.m.Unavailable)
	add("serve_sim_completed_total", "requests that returned a result", s.m.Completed)
	add("serve_sim_good_total", "requests answered on time and correctly", s.m.Good)
	add("serve_sim_retries_total", "retry attempts scheduled", s.m.Retries)
	add("serve_sim_hedges_total", "hedged attempts dispatched", s.m.Hedges)
	add("serve_sim_recals_total", "recalibration passes started", s.m.Recals)
	add("serve_sim_fallbacks_total", "requests served by the digital fallback", s.m.Fallbacks)
	add("serve_sim_quarantines_total", "replica quarantine transitions", s.m.Quarantines)
	add("serve_sim_readmits_total", "quarantined replicas re-admitted after recalibration", s.m.Readmits)
	// Batch counters appear only when an arm actually coalesced, so the
	// stable dump of batching-off campaigns is unchanged byte for byte.
	if s.m.Batches > 0 {
		add("serve_sim_batches_total", "coalesced blocks dispatched by batching arms", s.m.Batches)
		add("serve_sim_coalesced_total", "requests served inside coalesced blocks", s.m.Coalesced)
	}
	h := r.Histogram("serve_sim_latency_seconds",
		"completion latency of simulated requests (virtual time, exact quantiles)", 0)
	for _, l := range s.m.latencies {
		h.Observe(l)
	}
	g := r.Gauge("serve_sim_queue_peak", "high-water mark of the simulated admission queue")
	if float64(s.peakQ) > g.Value() {
		g.Set(float64(s.peakQ))
	}
}

func (s *sim) push(t float64, kind int, req *simReq, rep *simReplica, att *simAttempt) {
	s.events.Push(t, simEvent{kind: kind, req: req, rep: rep, att: att})
}

func (s *sim) nextArrival(now float64) float64 {
	u := s.arrRN.Uniform(0, 1)
	if u <= 0 {
		u = 1e-12
	}
	return now - math.Log(u)/s.cfg.Rate
}

// pick returns the next free in-rotation replica, healthy first. allDown
// reports whether every replica is out of rotation entirely (quarantined
// or dead) — the fallback condition, distinct from "merely busy".
func (s *sim) pick(t float64, avoid *simReplica) (best *simReplica, allDown bool) {
	n := len(s.reps)
	start := s.rr
	s.rr = (s.rr + 1) % n
	allDown = true
	var degraded *simReplica
	for i := 0; i < n; i++ {
		r := s.reps[(start+i)%n]
		if r.dead || r.Health.State() == Quarantined {
			continue
		}
		allDown = false
		if r == avoid || r.freeAt > t {
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

func (s *sim) onArrival(t float64) {
	if t <= s.cfg.Duration {
		// Admit this arrival and schedule the next while the window is open.
		s.push(s.nextArrival(t), evArrival, nil, nil, nil)
	} else {
		return
	}
	s.m.Offered++
	req := &simReq{
		SimRequest: s.cfg.Requests[s.next%len(s.cfg.Requests)],
		arrive:     t,
		deadline:   t + s.cfg.Policy.Deadline,
		backoff:    s.cfg.Policy.RetryBackoff,
		span:       s.cfg.Tracer.Start("request", t),
	}
	s.next++
	s.admit(t, req)
}

// admit routes a request: dispatch if a replica is free, fall back if the
// whole pool is down, queue if there is room, shed otherwise.
func (s *sim) admit(t float64, req *simReq) {
	rep, allDown := s.pick(t, nil)
	if rep != nil {
		s.dispatch(t, req, rep, false)
		return
	}
	if allDown {
		s.serveFallback(t, req)
		return
	}
	if len(s.queue) >= s.cfg.Policy.QueueCap {
		s.m.Shed++
		req.span.SetErr("shed")
		req.span.End(t)
		return
	}
	req.span.Stage("queue", t)
	s.queue = append(s.queue, req)
	if len(s.queue) > s.peakQ {
		s.peakQ = len(s.queue)
	}
}

func (s *sim) serveFallback(t float64, req *simReq) {
	if !s.cfg.Policy.Fallback || s.cfg.Fallback == nil {
		s.m.Unavailable++
		req.span.SetErr("unavailable")
		req.span.End(t)
		return
	}
	s.m.Fallbacks++
	req.span.Stage("fallback", t)
	y := s.cfg.Fallback(req.X)
	dur := s.cfg.Lat.Base * s.cfg.Lat.DigitalMult * math.Exp(s.latRN.Normal(0, s.cfg.Lat.Jitter))
	att := &simAttempt{req: req, dur: dur, correct: y.ArgMax() == req.Want, ok: true}
	req.inFlight++
	s.push(t+dur, evDone, req, nil, att)
}

// dispatch runs the real analog inference now (faults inject in event
// order) and schedules its completion after a modeled service time.
func (s *sim) dispatch(t float64, req *simReq, rep *simReplica, isHedge bool) {
	req.attempts++
	req.inFlight++
	attName := "attempt"
	if isHedge {
		attName = "hedge-attempt"
	} else {
		req.span.Stage("dispatch", t)
	}
	y, ok := rep.Infer(req.X, s.cfg.Policy.VerifyReads)
	dur := s.cfg.Lat.AttemptDuration(s.latRN, s.cfg.Policy.VerifyReads)
	rep.freeAt = t + dur
	att := &simAttempt{req: req, rep: rep, dur: dur, correct: y.ArgMax() == req.Want, ok: ok,
		span: req.span.Child(attName, t)}
	s.push(t+dur, evDone, req, rep, att)
	if s.cfg.Policy.Hedge && !isHedge && !req.hedged && len(s.reps) > 1 {
		d := rep.Health.HedgeDelay(s.cfg.Policy.HedgeQuantile, s.cfg.Policy.HedgeMin, s.cfg.Policy.Deadline)
		if t+d < t+dur { // hedging after completion would be pointless
			s.push(t+d, evHedge, req, rep, nil)
		}
	}
}

func (s *sim) onHedge(t float64, req *simReq, primary *simReplica) {
	if req.done || req.hedged {
		return
	}
	second, _ := s.pick(t, primary)
	if second == nil {
		return
	}
	req.hedged = true
	s.m.Hedges++
	req.span.Stage("hedge", t)
	s.dispatch(t, req, second, true)
}

func (s *sim) onDone(t float64, att *simAttempt) {
	req := att.req
	req.inFlight--
	if att.rep != nil {
		att.rep.Health.ObserveServe(att.dur, !att.ok)
	}
	if !att.ok {
		// The verify read disagreed with the forward read: the stage where
		// temporal redundancy caught (or at least suspected) a transient.
		req.span.Stage("verify-read", t)
		att.span.SetErr("verify-mismatch")
	}
	att.span.End(t)
	if !req.done {
		switch {
		case att.ok:
			s.complete(t, req, att.correct)
		case req.inFlight > 0:
			// A hedge is still running; let it race the retry decision.
		case req.attempts < s.cfg.Policy.MaxAttempts && t+req.backoff < req.deadline:
			s.m.Retries++
			s.push(t+req.backoff, evRetry, req, nil, nil)
			req.backoff *= 2
		default:
			// Out of attempts (or time): serve the suspect read rather
			// than nothing.
			s.complete(t, req, att.correct)
		}
	}
	if att.rep != nil {
		s.pump(t, att.rep)
	}
}

func (s *sim) onRetry(t float64, req *simReq) {
	if req.done {
		return
	}
	if t > req.deadline {
		s.m.Expired++
		req.done = true
		req.span.SetErr("expired")
		req.span.End(t)
		return
	}
	req.span.Stage("retry", t)
	s.admit(t, req)
}

func (s *sim) complete(t float64, req *simReq, correct bool) {
	req.done = true
	s.m.Completed++
	s.m.latencies = append(s.m.latencies, t-req.arrive)
	if correct {
		s.m.Correct++
	}
	if t <= req.deadline {
		if correct {
			s.m.Good++
		}
	} else {
		s.m.Late++
		req.span.SetErr("late")
	}
	req.span.Stage("complete", t)
	req.span.End(t)
}

// pump hands a freed replica the oldest still-live queued requests: one
// with batching off, up to Policy.BatchMax coalesced into a single block
// otherwise. Requests whose deadline already passed in the queue are
// expired here — before dispatch — with the same accounting either way, so
// a stale request never consumes replica time and is never double-counted.
func (s *sim) pump(t float64, rep *simReplica) {
	if rep.dead || rep.recalling || rep.freeAt > t || rep.Health.State() == Quarantined {
		return
	}
	max := s.cfg.Policy.BatchMax
	if max < 1 {
		max = 1
	}
	var batch []*simReq
	for len(s.queue) > 0 && len(batch) < max {
		req := s.queue[0]
		s.queue = s.queue[1:]
		if req.done {
			continue
		}
		if t > req.deadline {
			s.m.Expired++
			req.done = true
			req.span.SetErr("expired")
			req.span.End(t)
			continue
		}
		batch = append(batch, req)
	}
	switch len(batch) {
	case 0:
	case 1:
		// A lone survivor takes the ordinary dispatch path, so BatchMax=1
		// (and any block that coalesces to one) is bit-identical to the
		// unbatched service: same latency draw, same hedge eligibility.
		s.dispatch(t, batch[0], rep, false)
	default:
		s.dispatchBatch(t, batch, rep)
	}
}

// dispatchBatch runs one coalesced block: the analog inference executes as
// a single batched read (the sample-blocked MVM path, with Infer's verify
// discipline kept per sample), one service-time draw prices the whole
// block — scaled by BatchPerExtra per extra member — and every member
// completes at that same instant carrying its own correctness and verify
// verdict, so retry/fallback disposition stays per-request. Blocks are
// never hedged: hedging prices single stragglers, and a block already
// amortizes its dispatch.
func (s *sim) dispatchBatch(t float64, batch []*simReq, rep *simReplica) {
	s.m.Batches++
	s.m.Coalesced += len(batch)
	xs := make([]tensor.Vector, len(batch))
	for i, req := range batch {
		req.attempts++
		req.inFlight++
		req.span.Stage("dispatch", t)
		xs[i] = req.X
	}
	ys, oks := rep.InferBatch(xs, s.cfg.Policy.VerifyReads)
	dur := s.cfg.Lat.AttemptDuration(s.latRN, s.cfg.Policy.VerifyReads)
	dur *= 1 + s.cfg.Lat.BatchPerExtra*float64(len(batch)-1)
	rep.freeAt = t + dur
	for i, req := range batch {
		att := &simAttempt{req: req, rep: rep, dur: dur, correct: ys[i].ArgMax() == req.Want, ok: oks[i],
			span: req.span.Child("attempt", t)}
		s.push(t+dur, evDone, req, rep, att)
	}
}

func (s *sim) onCanary(t float64, rep *simReplica) {
	if rep.dead || rep.recalling {
		return
	}
	if t <= s.cfg.Duration {
		s.push(t+s.cfg.Policy.CanaryEvery, evCanary, nil, rep, nil)
	}
	if rep.Health.State() == Quarantined {
		return
	}
	div := rep.Canary()
	busy := float64(s.cfg.Policy.CanaryVectors) * s.cfg.Lat.CanaryPerVec
	if rep.freeAt < t {
		rep.freeAt = t
	}
	rep.freeAt += busy
	if rep.Health.ObserveCanary(div) == Quarantined {
		s.m.Quarantines++
		s.startRecal(t, rep)
	}
}

func (s *sim) startRecal(t float64, rep *simReplica) {
	rep.recalling = true
	s.m.Recals++
	st, div := rep.Recalibrate()
	rep.lastDiv = div
	s.push(t+s.cfg.Lat.recal(st), evRecalDone, nil, rep, nil)
}

func (s *sim) onRecalDone(t float64, rep *simReplica) {
	rep.recalling = false
	if rep.lastDiv <= s.cfg.Policy.ReadmitThresh {
		rep.recalTries = 0
		s.m.Readmits++
		rep.Health.Readmit(rep.lastDiv)
		rep.freeAt = t
		s.pump(t, rep)
		if t <= s.cfg.Duration && s.cfg.Policy.CanaryEvery > 0 {
			s.push(t+s.cfg.Policy.CanaryEvery, evCanary, nil, rep, nil)
		}
		return
	}
	if rep.recalTries < s.cfg.Policy.RecalMaxRetries {
		rep.recalTries++
		s.startRecal(t, rep)
		return
	}
	// Abandoned: the replica stays quarantined for good.
	rep.dead = true
}
