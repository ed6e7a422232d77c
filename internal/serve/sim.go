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

// sim is the virtual-time driver of the dispatch core: every action runs
// inline at its event's instant — Infer in event order, durations from the
// LatencyModel, timers on an EventQueue ordered by (time, push order) — so
// the tables are bit-identical at a fixed seed.
type sim struct {
	cfg    SimConfig
	c      *core
	events EventQueue[func(t float64)]
	arrRN  *rngutil.Source
	latRN  *rngutil.Source
	next   int // next request-stream index
	// arrivals, when non-nil, replaces the Poisson stream with scripted
	// arrival times; answered, when non-nil, sees every request's result.
	arrivals []float64
	answered func(req *request, y tensor.Vector, err error)
}

// RunSim drives one policy arm over the replica pool and returns its
// metrics. The replicas' pipelines are consumed (faults accumulate);
// rebuild them per arm.
func RunSim(cfg SimConfig, replicas []*Replica) Metrics {
	return newSim(cfg, replicas).run()
}

func newSim(cfg SimConfig, replicas []*Replica) *sim {
	s := &sim{
		cfg:   cfg,
		arrRN: cfg.RNG.Child("arrivals"),
		latRN: cfg.RNG.Child("latency"),
	}
	s.c = newCore(cfg.Policy, replicas, s, cfg.Fallback != nil)
	s.c.tracer = cfg.Tracer
	s.c.until = cfg.Duration
	s.c.keepLatencies = true
	return s
}

func (s *sim) run() Metrics {
	s.pushArrival(0)
	s.c.start(0)
	for s.events.Len() > 0 {
		t, f := s.events.Pop()
		f(t)
	}
	// Anything still queued when the event stream ran dry can never be
	// served: it expired waiting.
	for _, q := range s.c.queue {
		if !q.done {
			s.c.fail(q.deadline, q, ErrDeadline)
		}
	}
	s.exportObs()
	return s.c.m
}

// pushArrival schedules the arrival after the one at now (the first one
// when s.next is 0).
func (s *sim) pushArrival(now float64) {
	if s.arrivals != nil {
		if s.next < len(s.arrivals) {
			s.events.Push(s.arrivals[s.next], s.onArrival)
		}
		return
	}
	u := s.arrRN.Uniform(0, 1)
	if u <= 0 {
		u = 1e-12
	}
	s.events.Push(now-math.Log(u)/s.cfg.Rate, s.onArrival)
}

func (s *sim) onArrival(t float64) {
	if t > s.cfg.Duration {
		return
	}
	// Schedule the next arrival while the window is open.
	r := s.cfg.Requests[s.next%len(s.cfg.Requests)]
	s.next++
	s.pushArrival(t)
	s.c.arrive(t, &request{x: r.X, want: r.Want})
}

func (s *sim) infer(t float64, rep *Replica, atts []*attempt) {
	verify := s.cfg.Policy.VerifyReads
	rep.run(atts, verify)
	// One draw prices the whole block, scaled per extra member.
	dur := s.cfg.Lat.AttemptDuration(s.latRN, verify)
	dur *= 1 + s.cfg.Lat.BatchPerExtra*float64(len(atts)-1)
	rep.freeAt = t + dur
	for _, a := range atts {
		a.dur = dur
		s.events.Push(t+dur, func(t float64) { s.c.onDone(t, a) })
	}
}

func (s *sim) fallback(t float64, att *attempt) {
	att.y, att.ok = s.cfg.Fallback(att.req.x), true
	att.dur = s.cfg.Lat.Base * s.cfg.Lat.DigitalMult * math.Exp(s.latRN.Normal(0, s.cfg.Lat.Jitter))
	s.events.Push(t+att.dur, func(t float64) { s.c.onDone(t, att) })
}

func (s *sim) timer(at float64, f func(t float64)) { s.events.Push(at, f) }

// canary replays the golden vectors now and books the round as replica
// busy time.
func (s *sim) canary(t float64, rep *Replica) {
	div := rep.Canary()
	busy := float64(s.cfg.Policy.CanaryVectors) * s.cfg.Lat.CanaryPerVec
	if rep.freeAt < t {
		rep.freeAt = t
	}
	rep.freeAt += busy
	s.c.onCanaryResult(t, rep, div)
}

func (s *sim) recal(t float64, rep *Replica) {
	st, div := rep.Recalibrate()
	lat := s.cfg.Lat
	d := max(float64(st.Pulses)*lat.PulseTime+float64(st.DetectReads)*lat.ReadTime, lat.RecalFloor)
	s.events.Push(t+d, func(t float64) { s.c.onRecalDone(t, rep, div) })
}

func (s *sim) answer(t float64, req *request, y tensor.Vector, err error) {
	if s.answered != nil {
		s.answered(req, y, err)
	}
}

// exportObs folds the arm's final accounting into the shared registry. Arms
// run sequentially, so accumulation order — and therefore the stable dump —
// is deterministic.
func (s *sim) exportObs() {
	r := s.cfg.Obs
	if r == nil {
		return
	}
	m := &s.c.m
	add := func(name, help string, v int) {
		r.Counter(name, help).Add(int64(v))
	}
	add("serve_sim_offered_total", "requests offered to the simulated service", m.Offered)
	add("serve_sim_shed_total", "requests load-shed at a full queue", m.Shed)
	add("serve_sim_expired_total", "requests that missed their deadline before completing", m.Expired)
	add("serve_sim_late_total", "requests completed after their deadline", m.Late)
	add("serve_sim_unavailable_total", "requests with no replica in rotation and no fallback", m.Unavailable)
	add("serve_sim_completed_total", "requests that returned a result", m.Completed)
	add("serve_sim_good_total", "requests answered on time and correctly", m.Good)
	add("serve_sim_retries_total", "retry attempts scheduled", m.Retries)
	add("serve_sim_hedges_total", "hedged attempts dispatched", m.Hedges)
	add("serve_sim_recals_total", "recalibration passes started", m.Recals)
	add("serve_sim_fallbacks_total", "requests served by the digital fallback", m.Fallbacks)
	add("serve_sim_quarantines_total", "replica quarantine transitions", m.Quarantines)
	add("serve_sim_readmits_total", "quarantined replicas re-admitted after recalibration", m.Readmits)
	// Batch counters appear only when an arm actually coalesced, so the
	// stable dump of batching-off campaigns is unchanged byte for byte.
	if m.Batches > 0 {
		add("serve_sim_batches_total", "coalesced blocks dispatched by batching arms", m.Batches)
		add("serve_sim_coalesced_total", "requests served inside coalesced blocks", m.Coalesced)
	}
	h := r.Histogram("serve_sim_latency_seconds",
		"completion latency of simulated requests (virtual time, exact quantiles)", 0)
	m.ObserveLatencies(h)
	g := r.Gauge("serve_sim_queue_peak", "high-water mark of the simulated admission queue")
	if float64(s.c.peakQ) > g.Value() {
		g.Set(float64(s.c.peakQ))
	}
}
