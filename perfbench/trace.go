package main

import (
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// tracer accumulates the time spent inside calls into each layer, timed
// from the benchmark's side of the call. A nil *tracer records nothing, and
// the workloads hand the layers their plain values when it is nil, so an
// untraced run calls the program exactly as a user would.
type tracer struct {
	mu    sync.Mutex
	spans map[string]time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string]time.Duration{}} }

// add records one call of d into the named layer function.
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[name] += d
	t.mu.Unlock()
}

// since records the call that started at t0.
func (t *tracer) since(name string, t0 time.Time) {
	if t != nil {
		t.add(name, time.Since(t0))
	}
}

// get reports the total time recorded in the named span.
func (t *tracer) get(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[name]
}

// msPerOp is the named span's total time in milliseconds divided by ops.
func (t *tracer) msPerOp(name string, ops int) float64 {
	return float64(t.get(name)) / 1e6 / float64(ops)
}

// Span names of the crossbar calls a traced nn.Mat records.
const (
	spanForward  = "crossbar.forward"
	spanBackward = "crossbar.backward"
	spanUpdate   = "crossbar.update"
)

// factory wraps every nn.Mat that f builds so its crossbar calls are
// timed; with a nil tracer it returns f unchanged.
func (t *tracer) factory(f nn.MatFactory) nn.MatFactory {
	if t == nil {
		return f
	}
	return func(rows, cols int) nn.Mat { return &tracedMat{m: f(rows, cols), tr: t} }
}

// matTime is the time recorded so far inside the three crossbar calls.
func (t *tracer) matTime() time.Duration {
	return t.get(spanForward) + t.get(spanBackward) + t.get(spanUpdate)
}

// tracedMat times the calls into the weight storage it wraps. It keeps the
// optional nn.BatchMat and nn.OrderPinned behaviour of the wrapped value,
// so the network takes the same code path as without it.
type tracedMat struct {
	m  nn.Mat
	tr *tracer
}

func (t *tracedMat) Rows() int { return t.m.Rows() }
func (t *tracedMat) Cols() int { return t.m.Cols() }

func (t *tracedMat) Forward(x tensor.Vector) tensor.Vector {
	t0 := time.Now()
	defer t.tr.since(spanForward, t0)
	return t.m.Forward(x)
}

// ForwardBatch implements nn.BatchMat through nn.ForwardBatch, which takes
// the wrapped value's batched path when it has one and its sequential
// Forward loop otherwise — the same choice the network makes unwrapped.
func (t *tracedMat) ForwardBatch(xs []tensor.Vector) []tensor.Vector {
	t0 := time.Now()
	defer t.tr.since(spanForward, t0)
	return nn.ForwardBatch(t.m, xs)
}

func (t *tracedMat) Backward(d tensor.Vector) tensor.Vector {
	t0 := time.Now()
	defer t.tr.since(spanBackward, t0)
	return t.m.Backward(d)
}

func (t *tracedMat) Update(scale float64, u, v tensor.Vector) {
	t0 := time.Now()
	defer t.tr.since(spanUpdate, t0)
	t.m.Update(scale, u, v)
}

// OpOrderPinned implements nn.OrderPinned by asking the wrapped value.
func (t *tracedMat) OpOrderPinned() bool {
	p, ok := t.m.(nn.OrderPinned)
	return ok && p.OpOrderPinned()
}
