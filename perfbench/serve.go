package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serve-open: an open-loop generator sends a Poisson stream of requests to
// one serve.Service at a light rate, where most dispatches carry a single
// request, and at a peak rate, where the workers coalesce requests. The two
// phases alternate in segments of serveSegmentS seconds, half the run each.
const (
	serveWidth    = 256
	serveClasses  = 10
	serveReplicas = 2
	serveBatchMax = 8
	// serveBatchWait is how long a worker holding a partial block waits for
	// more arrivals, in seconds. With one P the generator can only enqueue
	// while no worker runs, so without a wait the workers would never find
	// a second request queued and the peak phase would not coalesce.
	serveBatchWait = 200e-6
	serveLightRate = 300.0
	servePeakRate  = 2400.0
	serveSegmentS  = 1.0
	// serveLimitMs is the latency limit goodput counts against: the
	// service's own deadline.
	serveLimitMs = 8.0
	// serveLateShare is the share of the latency limit by which the
	// generator's p99 lateness may exceed the schedule before a phase is
	// flagged as behind (gen.behind).
	serveLateShare = 0.5
	// serveMinAgreement is the top-1 agreement with the digital golden net
	// that the answered requests must reach.
	serveMinAgreement = 0.95
)

var serveWorkload = workload{
	name:         "serve-open",
	opsPerSecond: (serveLightRate + servePeakRate) / 2,
	setup:        setupServe,
}

type serveInstance struct {
	// arrivals draws the request schedule.
	arrivals *rngutil.Source
	pool     []tensor.Vector
	want     []int // golden top-1 of each pool vector
	svc      *serve.Service
	tr       *tracer
	// pending maps the first element of an in-flight request's input to
	// the time it was handed to Do (traced runs only).
	pending sync.Map
	// phase is where the traced pipelines record the current phase's
	// dispatches.
	phase atomic.Pointer[phaseTrace]
}

// phaseTrace is what the traced pipelines saw during one phase.
type phaseTrace struct {
	mu         sync.Mutex
	dispatches int64
	attempts   int64 // requests carried, summed over dispatches
	dispatch   time.Duration
	canary     time.Duration
	queueWait  []float64 // ms
}

func setupServe(seed uint64, tr *tracer) (instance, error) {
	rng := rngutil.New(seed)
	cfg := dataset.DefaultDigits()
	cfg.Dim = serveWidth
	cfg.Noise = 1.5
	cfg.PerClass = 150
	train, test := dataset.Digits(cfg, rng.Child("digits")).Split(0.8)
	golden := nn.NewMLP([]int{serveWidth, serveWidth, serveClasses}, nn.TanhAct, nn.SoftmaxAct, nn.DenseFactory(rng.Child("golden")))
	for i := range train.X {
		golden.TrainStep(train.X[i], train.Y[i], 0.01)
	}
	r := &serveInstance{arrivals: rng.Child("arrivals"), pool: test.X, tr: tr}
	for _, x := range test.X {
		r.want = append(r.want, golden.Predict(x))
	}
	r.phase.Store(&phaseTrace{})

	pol := serve.PolicyFull()
	pol.BatchMax = serveBatchMax
	pol.BatchWait = serveBatchWait
	var reps []*serve.Replica
	for i := 0; i < serveReplicas; i++ {
		p := serve.NewMLPPipeline(golden, test.X[:pol.CanaryVectors], serve.DefaultMLPPipelineConfig(), nil,
			rng.Child(fmt.Sprintf("replica%d", i)))
		var pipe serve.Pipeline = p
		if tr != nil {
			pipe = &tracedPipe{p: p, r: r}
		}
		reps = append(reps, serve.NewReplica(i, pipe, pol))
	}
	fallback := func(x tensor.Vector) tensor.Vector { return golden.Forward(x).Clone() }
	r.svc = serve.NewService(pol, reps, fallback, serviceWorkers())
	return r, nil
}

func (r *serveInstance) close() { r.svc.Close() }

// phaseResult is what the generator side saw during one phase, summed
// over the phase's segments.
type phaseResult struct {
	latMs    []float64 // answered requests, from when each was due
	lateMs   []float64 // how late the generator sent each request
	sent     int
	good     int // answered within the latency limit
	agree    int // answered with the golden net's top-1
	answered int
	wallS    float64
	counters serve.ServiceCounters
	trace    phaseTrace
}

// runSegment sends n requests as a Poisson stream of rate req/s, each
// through a blocking Do in its own goroutine, waits for every answer and
// adds what it saw to p. first numbers the segment's first request.
func (r *serveInstance) runSegment(p *phaseResult, n int, rate float64, first int, out *outcome) {
	r.phase.Store(&p.trace)
	c0 := r.svc.Counters()
	lat := make([]float64, n)
	answered := make([]bool, n)
	agree := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	at := 0.0 // seconds after start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(at * float64(time.Second)))
		at += r.arrivals.ExpFloat64() / rate
		// Spin rather than sleep: while the generator sleeps the vCPU can
		// halt, and waking a halted vCPU took up to several milliseconds on
		// the VM this benchmark was tuned on. Gosched lets the service run.
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		p.lateMs = append(p.lateMs, msSince(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			k := (first + i) % len(r.pool)
			x := r.pool[k].Clone()
			if r.tr != nil {
				r.pending.Store(&x[0], time.Now())
			}
			y, err := r.svc.Do(x)
			lat[i] = msSince(due)
			if r.tr != nil {
				r.pending.Delete(&x[0]) // never dispatched: shed or expired
			}
			if err != nil {
				errs[i] = err
				return
			}
			if len(y) != serveClasses {
				errs[i] = fmt.Errorf("answer has %d outputs, want %d", len(y), serveClasses)
				return
			}
			answered[i] = true
			agree[i] = y.ArgMax() == r.want[k]
		}(i, due)
	}
	wg.Wait()
	p.wallS += time.Since(start).Seconds()
	p.sent += n
	for i := 0; i < n; i++ {
		switch {
		case answered[i]:
			p.answered++
			p.latMs = append(p.latMs, lat[i])
			if lat[i] <= serveLimitMs {
				p.good++
			}
			if agree[i] {
				p.agree++
			}
		case errors.Is(errs[i], serve.ErrShed), errors.Is(errs[i], serve.ErrDeadline):
			// A goodput miss, not a wrong answer.
		default:
			out.fail("request %d: %v", first+i, errs[i])
		}
	}
	c1 := r.svc.Counters()
	p.counters.Shed += c1.Shed - c0.Shed
	p.counters.Expired += c1.Expired - c0.Expired
	p.counters.Retries += c1.Retries - c0.Retries
	p.counters.Hedges += c1.Hedges - c0.Hedges
	p.counters.Fallbacks += c1.Fallbacks - c0.Fallbacks
}

// run alternates light and peak segments of serveSegmentS each, so both
// phases see the same host conditions over the run.
func (r *serveInstance) run(ops int) *outcome {
	perRound := (serveLightRate + servePeakRate) * serveSegmentS
	rounds := max(1, int(math.Round(float64(ops)/perRound)))
	lightN := int(math.Round(float64(ops) * serveLightRate / (serveLightRate + servePeakRate) / float64(rounds)))
	peakN := ops/rounds - lightN
	out := &outcome{attempted: int64(rounds * (lightN + peakN))}
	var light, peak phaseResult
	sent := 0
	// An open loop's rate is set by its schedule, so only its times are
	// scaled to the reference host speed (probe.go). The probe runs between
	// segments, where it delays no request.
	out.fixedRate = true
	for i := 0; i < rounds; i++ {
		out.host.sample(5)
		r.runSegment(&light, lightN, serveLightRate, sent, out)
		sent += lightN
		out.host.sample(5)
		r.runSegment(&peak, peakN, servePeakRate, sent, out)
		sent += peakN
	}

	var all, late []float64
	var good, agree, answered int
	var wall float64
	out.e2e = map[string]float64{}
	out.layers = map[string]float64{}
	behind := 0
	for _, ph := range []struct {
		name string
		res  *phaseResult
	}{{"light.", &light}, {"peak.", &peak}} {
		p := ph.res
		all = append(all, p.latMs...)
		late = append(late, p.lateMs...)
		good += p.good
		agree += p.agree
		answered += p.answered
		wall += p.wallS
		if quantile(p.lateMs, 0.99) > serveLateShare*serveLimitMs {
			behind++
		}
		out.e2e[ph.name+"p50_ms"] = quantile(p.latMs, 0.5)
		out.e2e[ph.name+"p99_ms"] = p99(p.latMs)
		pt := &p.trace
		l := out.layers
		if pt.dispatches > 0 {
			l[ph.name+"serve.dispatch_ms"] = float64(pt.dispatch) / 1e6 / float64(pt.dispatches)
			l[ph.name+"serve.batch_size"] = float64(pt.attempts) / float64(pt.dispatches)
			l[ph.name+"serve.useful_ratio"] = float64(p.answered) / float64(pt.attempts)
		}
		l[ph.name+"serve.queue_wait_p50_ms"] = quantile(pt.queueWait, 0.5)
		l[ph.name+"serve.queue_wait_p99_ms"] = p99(pt.queueWait)
		l[ph.name+"serve.canary_ms"] = float64(pt.canary) / 1e6 / p.wallS
		l[ph.name+"serve.hedges"] = float64(p.counters.Hedges)
		l[ph.name+"serve.retries"] = float64(p.counters.Retries)
		l[ph.name+"serve.fallbacks"] = float64(p.counters.Fallbacks)
		l[ph.name+"serve.shed"] = float64(p.counters.Shed)
		l[ph.name+"serve.expired"] = float64(p.counters.Expired)
	}
	out.layers["gen.late_p99_ms"] = quantile(late, 0.99)
	out.layers["gen.behind"] = float64(behind)
	if behind > 0 {
		fmt.Printf("note: the generator ran more than %.0f%% of the %.0f ms latency limit late (p99 %.3f ms); latencies include that wait\n",
			100*serveLateShare, serveLimitMs, out.layers["gen.late_p99_ms"])
	}
	agreement := 0.0
	if answered > 0 {
		agreement = float64(agree) / float64(answered)
	}
	if agreement < serveMinAgreement {
		out.fail("top-1 agreement with the golden net %.4f below %.2f", agreement, serveMinAgreement)
	}
	out.e2e["throughput"] = float64(answered) / wall
	out.e2e["p50_ms"] = quantile(all, 0.5)
	out.e2e["p99_ms"] = p99(all)
	out.e2e["goodput"] = float64(good) / float64(out.attempted)
	out.e2e["accuracy"] = agreement
	out.speed = 1 / out.e2e["light.p50_ms"]
	return out
}

// tracedPipe times the calls the service makes into one replica's
// pipeline. It implements serve.BatchPipeline, as the pipeline it wraps
// does, so the service takes the same batched path.
type tracedPipe struct {
	p *serve.MLPPipeline
	r *serveInstance
}

// record accounts one dispatch that started at t0 and carried xs.
func (t *tracedPipe) record(t0 time.Time, xs []tensor.Vector) {
	took := time.Since(t0)
	pt := t.r.phase.Load()
	var waits []float64
	for _, x := range xs {
		if v, ok := t.r.pending.LoadAndDelete(&x[0]); ok {
			waits = append(waits, float64(t0.Sub(v.(time.Time)))/1e6)
		}
	}
	pt.mu.Lock()
	pt.dispatches++
	pt.attempts += int64(len(xs))
	pt.dispatch += took
	pt.queueWait = append(pt.queueWait, waits...)
	pt.mu.Unlock()
}

func (t *tracedPipe) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) {
	t0 := time.Now()
	y, ok := t.p.Infer(x, verify)
	t.record(t0, []tensor.Vector{x})
	return y, ok
}

func (t *tracedPipe) InferBatch(xs []tensor.Vector, verify bool) ([]tensor.Vector, []bool) {
	t0 := time.Now()
	ys, oks := t.p.InferBatch(xs, verify)
	t.record(t0, xs)
	return ys, oks
}

func (t *tracedPipe) CanaryDivergence() float64 {
	t0 := time.Now()
	d := t.p.CanaryDivergence()
	pt := t.r.phase.Load()
	pt.mu.Lock()
	pt.canary += time.Since(t0)
	pt.mu.Unlock()
	return d
}

func (t *tracedPipe) Recalibrate() serve.RecalStats { return t.p.Recalibrate() }
