package serve

import "repro/internal/obs"

// BreakerState is the three-state circuit breaker of a replica.
type BreakerState int32

// Breaker states, in order of declining trust.
const (
	// Healthy replicas take traffic first.
	Healthy BreakerState = iota
	// Degraded replicas serve only when no healthy replica is free and are
	// never chosen as hedge targets.
	Degraded
	// Quarantined replicas are out of rotation until recalibration
	// re-admits them.
	Quarantined
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	}
	return "state?"
}

// Health is the per-replica accounting driving the circuit breaker:
// canary-divergence and latency EWMAs, a transient-rate EWMA from serving,
// and a latency window for the hedging quantile. It is not synchronized:
// only the dispatch core touches it, inside the simulator's loop or under
// the live Service's mutex.
type Health struct {
	state     BreakerState
	alpha     float64
	degradeAt float64
	quarAt    float64

	divEWMA   float64 // canary divergence
	transEWMA float64 // serving transient (verify-read mismatch) rate
	latEWMA   float64 // service latency, seconds
	window    *obs.LatencyWindow
}

// NewHealth builds the tracker for one replica under pol.
func NewHealth(pol Policy) *Health {
	alpha := pol.EWMAAlpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	degrade, quarantine := pol.DegradeThresh, pol.QuarantineThresh
	if quarantine <= 0 {
		quarantine = 2 // unreachable: breaker effectively disabled
	}
	if degrade <= 0 {
		degrade = quarantine
	}
	return &Health{
		state:     Healthy,
		alpha:     alpha,
		degradeAt: degrade,
		quarAt:    quarantine,
		window:    obs.NewLatencyWindow(64),
	}
}

// State reports the current breaker state.
func (h *Health) State() BreakerState {
	return h.state
}

// ObserveServe folds one completed serving attempt into the accounting.
func (h *Health) ObserveServe(latency float64, transient bool) {
	if h.latEWMA == 0 {
		h.latEWMA = latency
	} else {
		h.latEWMA = h.alpha*latency + (1-h.alpha)*h.latEWMA
	}
	t := 0.0
	if transient {
		t = 1
	}
	h.transEWMA = h.alpha*t + (1-h.alpha)*h.transEWMA
	h.window.Add(latency)
}

// ObserveCanary folds one canary round's divergence fraction into the EWMA
// and applies the breaker transition, returning the resulting state. A
// quarantined replica stays quarantined: only Readmit (the recalibration
// path) brings it back.
func (h *Health) ObserveCanary(div float64) BreakerState {
	h.divEWMA = h.alpha*div + (1-h.alpha)*h.divEWMA
	if h.state == Quarantined {
		return h.state
	}
	switch {
	case h.divEWMA >= h.quarAt:
		h.state = Quarantined
	case h.divEWMA >= h.degradeAt || h.transEWMA >= h.degradeAt:
		h.state = Degraded
	default:
		h.state = Healthy
	}
	return h.state
}

// Readmit returns a recalibrated replica to rotation, seeding the
// divergence EWMA with its fresh post-recalibration measurement.
func (h *Health) Readmit(div float64) {
	h.divEWMA = div
	h.transEWMA = 0
	if div >= h.degradeAt {
		h.state = Degraded
	} else {
		h.state = Healthy
	}
}

// HedgeDelay reports how long to wait before hedging against this replica:
// the q-th quantile of its recent latencies, floored by min (used until
// the window warms up) and capped by max.
func (h *Health) HedgeDelay(q, min, max float64) float64 {
	return h.window.HedgeDelay(q, min, max)
}
