// Package serve is the self-healing concurrent inference service of the
// repository: the layer that keeps the analog substrates of the paper —
// crossbar MLP tiles (§II) and X-MANN distributed memories (§III) — serving
// under live load while the device non-idealities of §II-B (stuck
// crosspoints, PCM drift, transient read upsets, write failures) degrade
// them, and repairs the damage in the background without going down.
//
// The runtime fronts a pool of replicated tile groups (each replica an
// nn.Mat-compatible copy of the same golden weights, programmed with
// crossbar.ProgramVerify and optionally wrapped in faults.RemappedArray)
// and provides, in escalating order of machinery:
//
//   - a request scheduler with per-request deadlines, a bounded queue with
//     load shedding, and retry-with-backoff on suspected transient read
//     upsets (detected by temporal redundancy: the read is issued twice and
//     divergent pairs are retried — persistent faults agree with themselves
//     and do not trigger retry storms);
//
//   - hedged reads: when a replica's attempt outlives the replica pool's
//     observed latency quantile, the request is dispatched to a second,
//     free replica and the first success wins;
//
//   - per-replica health accounting (canary-divergence and latency EWMAs,
//     fed by a canary probe that periodically replays golden vectors with
//     known digital-reference outputs) driving a three-state circuit
//     breaker: healthy → degraded (served only when no healthy replica is
//     free) → quarantined (out of rotation);
//
//   - a drift watchdog: on canary divergence the quarantined replica is
//     pulled from rotation and re-programmed from the golden weights in the
//     background (crossbar.ProgramVerify, plus faults.Detect/remap for
//     replicas with spare columns), then re-admitted once a fresh canary
//     passes — while the remaining replicas, and ultimately a digital
//     float fallback path, keep serving so throughput degrades gracefully
//     instead of failing.
//
// One single-threaded dispatch core (core.go) holds the whole request
// lifecycle — admit, pick, dispatch, batch pump, hedge, retry, complete,
// canary and recalibration: it takes timestamped events and emits actions.
// Two drivers run it. RunSim (sim.go), behind the R2 campaign
// (cmd/serve-campaign), runs each action inline at its virtual instant, so
// the published tables are bit-identical run-to-run at a fixed seed.
// Service (service.go) is the live goroutine runtime: it holds the core
// under one mutex and runs the pipelines outside it; the -race tests
// hammer it, including forward reads racing a background reprogram. Only
// the live driver feeds the caller's deadline and the end of a canary
// round, which the simulator models as virtual time (see Service), and
// TestLiveMatchesSim requires both drivers to give every request of one
// scripted workload the same outcome.
package serve

// Policy bounds the serving behaviour of one arm of the campaign (and of a
// live Service). The zero value is not useful; start from PolicyNone,
// PolicyRetry, or PolicyFull.
type Policy struct {
	// Name labels the arm in tables ("none", "retry", "self-heal").
	Name string

	// QueueCap bounds the request queue; arrivals beyond it are shed
	// immediately (load shedding) rather than queued into certain
	// deadline misses.
	QueueCap int
	// Deadline is the per-request completion deadline in seconds.
	Deadline float64

	// BatchMax enables dynamic request batching: a freed replica coalesces
	// up to BatchMax queued requests into one batched inference (the
	// sample-blocked MVM path), with per-request verify/retry/fallback
	// disposition preserved and requests that expired in the queue dropped
	// from the block before dispatch. 0 or 1 keeps one-request dispatch
	// exactly.
	BatchMax int
	// BatchWait is the gather timer, in seconds: a replica that frees
	// while fewer than BatchMax requests are queued is reserved, and the
	// block waits for more arrivals until the timer fires or the block
	// fills. The wait is carved
	// from the head request's deadline, so waiting can never spend time
	// that request needs; it runs on the driver's clock, so virtual-time
	// tests control it exactly. 0 dispatches whatever is queued at once
	// (every simulator campaign runs this way).
	BatchWait float64

	// VerifyReads enables temporal-redundancy transient detection: every
	// inference is read twice and a divergent pair is flagged suspect.
	VerifyReads bool
	// MaxAttempts bounds serving attempts per request (1 = no retry).
	MaxAttempts int
	// RetryBackoff is the delay before re-queueing a suspect request, in
	// seconds; it doubles per attempt.
	RetryBackoff float64

	// Hedge enables hedged reads against a second replica.
	Hedge bool
	// HedgeQuantile is the latency quantile after which a hedge launches.
	HedgeQuantile float64
	// HedgeMin floors the hedge delay until enough latency samples exist.
	HedgeMin float64

	// Watchdog enables the canary probe, circuit breaker, and background
	// recalibration.
	Watchdog bool
	// CanaryEvery is the per-replica canary period in seconds.
	CanaryEvery float64
	// CanaryVectors is how many golden vectors one canary round replays.
	CanaryVectors int
	// DegradeThresh and QuarantineThresh are canary-divergence EWMA levels
	// triggering the breaker transitions; ReadmitThresh is the raw
	// post-recalibration divergence a replica must beat to re-enter
	// rotation.
	DegradeThresh    float64
	QuarantineThresh float64
	ReadmitThresh    float64
	// EWMAAlpha is the mixing weight of new canary/latency observations.
	EWMAAlpha float64
	// RecalMaxRetries bounds consecutive failed recalibration attempts
	// before a replica is abandoned as dead.
	RecalMaxRetries int

	// Fallback enables the digital float path when no replica is in
	// rotation.
	Fallback bool
}

// basePolicy carries the queue/deadline parameters every arm shares, so
// the arms differ only in remediation machinery.
func basePolicy() Policy {
	return Policy{
		QueueCap:    64,
		Deadline:    8e-3,
		MaxAttempts: 1,
	}
}

// PolicyNone serves with no remediation at all: single reads, no retry, no
// hedging, no watchdog — the arm that shows what the faults cost.
func PolicyNone() Policy {
	p := basePolicy()
	p.Name = "none"
	return p
}

// PolicyRetry adds transient detection by verify reads and bounded
// retry-with-backoff, nothing else.
func PolicyRetry() Policy {
	p := basePolicy()
	p.Name = "retry"
	p.VerifyReads = true
	p.MaxAttempts = 3
	p.RetryBackoff = 0.4e-3
	return p
}

// PolicyFull is the complete self-healing stack: retry, hedged reads, the
// canary-fed circuit breaker, background recalibration, and the digital
// fallback.
func PolicyFull() Policy {
	p := PolicyRetry()
	p.Name = "self-heal"
	p.Hedge = true
	// p85, tuned against the unbiased nearest-rank estimator. (The original
	// 0.95 was tuned against a floor-biased quantile that actually fired
	// around p94; re-tuning against the fixed estimator, p85 hedges early
	// enough to rescue the straggler tail at every fault level.)
	p.HedgeQuantile = 0.85
	p.HedgeMin = 2.5e-3
	p.Watchdog = true
	p.CanaryEvery = 0.20
	p.CanaryVectors = 8
	p.DegradeThresh = 0.10
	p.QuarantineThresh = 0.25
	p.ReadmitThresh = 0.10
	p.EWMAAlpha = 0.5
	p.RecalMaxRetries = 2
	p.Fallback = true
	return p
}
