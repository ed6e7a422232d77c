package serve

import (
	"sync"

	"repro/internal/tensor"
)

// Replica owns one Pipeline plus its Health. The mutex is the ownership
// handoff required by the crossbar single-writer contract: inferences,
// canary rounds and recalibrations all funnel through it, so the arrays
// underneath only ever see one operation at a time even while the Service
// runs them from many goroutines. A Replica serves one driver for life:
// the rest is that driver's dispatch state, touched only by the core.
type Replica struct {
	ID     int
	Health *Health

	mu   sync.Mutex
	pipe Pipeline

	// Occupancy belongs to the driver: the simulator knows when modelled
	// work ends (freeAt), the live service counts running operations
	// (busy) and defers a canary round that comes due mid-inference.
	freeAt     float64
	busy       int
	canaryDue  bool
	recalling  bool
	dead       bool
	recalTries int
}

func (r *Replica) free(t float64) bool { return r.busy == 0 && r.freeAt <= t }

// NewReplica wraps pipe for service under pol.
func NewReplica(id int, pipe Pipeline, pol Policy) *Replica {
	return &Replica{ID: id, Health: NewHealth(pol), pipe: pipe}
}

// Infer serializes one inference through the replica's pipeline.
func (r *Replica) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pipe.Infer(x, verify)
}

// InferBatch serializes one coalesced block through the replica's
// pipeline, taking the pipeline's batched read when it implements
// BatchPipeline and otherwise running the inferences sequentially under a
// single lock hold (so the block still pays for one ownership handoff).
func (r *Replica) InferBatch(xs []tensor.Vector, verify bool) ([]tensor.Vector, []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if bp, ok := r.pipe.(BatchPipeline); ok {
		return bp.InferBatch(xs, verify)
	}
	ys := make([]tensor.Vector, len(xs))
	oks := make([]bool, len(xs))
	for i, x := range xs {
		ys[i], oks[i] = r.pipe.Infer(x, verify)
	}
	return ys, oks
}

// run reads one dispatch's attempts: Infer for a lone attempt, one
// InferBatch for a coalesced block.
func (r *Replica) run(atts []*attempt, verify bool) {
	if len(atts) == 1 {
		atts[0].y, atts[0].ok = r.Infer(atts[0].req.x, verify)
		return
	}
	xs := make([]tensor.Vector, len(atts))
	for i, a := range atts {
		xs[i] = a.req.x
	}
	ys, oks := r.InferBatch(xs, verify)
	for i, a := range atts {
		a.y, a.ok = ys[i], oks[i]
	}
}

// Canary serializes one canary round.
func (r *Replica) Canary() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pipe.CanaryDivergence()
}

// Recalibrate serializes a recalibration pass and returns the fresh canary
// divergence measured while still holding the array.
func (r *Replica) Recalibrate() (RecalStats, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.pipe.Recalibrate()
	return st, r.pipe.CanaryDivergence()
}
