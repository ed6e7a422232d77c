// Package nn is the digital neural-network substrate: fully connected
// networks with backpropagation and the loss functions used across the
// repository.
//
// The package defines the Mat interface — the contract between a network and
// the thing that stores its weight matrix. A Mat can be a plain dense
// float64 matrix (this package) or a simulated analog crossbar array
// (package crossbar). Networks express forward, backward, and rank-1 update
// passes only through this interface, which is exactly the structure of the
// three RPU cycles in Fig. 1 of the paper: the same network code trains on
// ideal digital weights and on non-ideal analog devices.
package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Mat is a weight matrix supporting the three crossbar cycles: forward MVM,
// transposed (backward) MVM, and a rank-1 outer-product update.
type Mat interface {
	// Rows and Cols report the matrix shape (output × input).
	Rows() int
	Cols() int
	// Forward returns W·x.
	Forward(x tensor.Vector) tensor.Vector
	// Backward returns Wᵀ·d.
	Backward(d tensor.Vector) tensor.Vector
	// Update applies W += scale·(u ⊗ v) (in expectation, for stochastic
	// implementations). u has Rows elements, v has Cols elements.
	Update(scale float64, u, v tensor.Vector)
}

// BatchMat is an optional Mat extension: weight storage that can execute a
// batch of forward MVMs as one parallel grid (crossbar arrays do this under
// a single periphery acquisition). Implementations must be bit-identical to
// calling Forward on each input in order.
type BatchMat interface {
	Mat
	ForwardBatch(xs []tensor.Vector) []tensor.Vector
}

// OrderPinned is an optional Mat extension: storage whose observable state
// depends on the exact sample-by-sample op order of the sequential path.
// Crossbar arrays report this while a fault-injection hook is attached —
// campaign hooks keep op-order-sensitive state shared across a network's
// arrays, so reordering ops across layers would change which op a fault
// lands on. Batched network evaluation degrades to the sequential per-sample
// stream when any layer reports a pinned order.
type OrderPinned interface {
	// OpOrderPinned reports whether ops must retain per-sample order.
	OpOrderPinned() bool
}

func opOrderPinned(m Mat) bool {
	p, ok := m.(OrderPinned)
	return ok && p.OpOrderPinned()
}

// BackwardSkipper is an optional Mat extension: storage that can run a
// backward cycle whose result the caller throws away without computing the
// transposed MVM. SkipBackward(d) must leave every observable state —
// weights, random-stream positions, op counters, fault-hook op streams,
// shape panics — exactly as Backward(d) would; it may drop only the work
// that produces the discarded vector. Networks use it for the bottom layer,
// whose input gradient has no layer below to read it (Gokmen & Vlasov never
// run that cycle for the first layer).
type BackwardSkipper interface {
	Mat
	SkipBackward(d tensor.Vector)
}

// SkipBackward runs m's backward cycle on d for its side effects only,
// through the Mat's SkipBackward when it has one and falling back to a
// Backward call whose result is dropped otherwise.
func SkipBackward(m Mat, d tensor.Vector) {
	if s, ok := m.(BackwardSkipper); ok {
		s.SkipBackward(d)
		return
	}
	m.Backward(d)
}

// ForwardBatch computes one forward MVM per input, through the Mat's
// batched path when it has one and falling back to sequential Forward calls
// otherwise. Either way the results are bit-identical to the sequential
// loop.
func ForwardBatch(m Mat, xs []tensor.Vector) []tensor.Vector {
	if b, ok := m.(BatchMat); ok {
		return b.ForwardBatch(xs)
	}
	ys := make([]tensor.Vector, len(xs))
	for i, x := range xs {
		ys[i] = m.Forward(x)
	}
	return ys
}

// DenseMat is the ideal digital Mat: an exact float64 matrix.
type DenseMat struct {
	M *tensor.Matrix
}

// NewDenseMat returns a zero-initialized rows×cols dense Mat.
func NewDenseMat(rows, cols int) *DenseMat {
	return &DenseMat{M: tensor.NewMatrix(rows, cols)}
}

// Rows implements Mat.
func (d *DenseMat) Rows() int { return d.M.Rows }

// Cols implements Mat.
func (d *DenseMat) Cols() int { return d.M.Cols }

// Forward implements Mat via the tiled kernel (bit-identical to the scalar
// reference m.MatVec at every worker count).
func (d *DenseMat) Forward(x tensor.Vector) tensor.Vector { return par.MatVec(d.M, x) }

// Backward implements Mat via the tiled transposed kernel.
func (d *DenseMat) Backward(dd tensor.Vector) tensor.Vector { return par.MatVecT(d.M, dd) }

// SkipBackward implements BackwardSkipper: Backward has no side effects, so
// only its shape check remains.
func (d *DenseMat) SkipBackward(dd tensor.Vector) {
	if len(dd) != d.M.Rows {
		panic(fmt.Sprintf("nn: Backward expects %d inputs, got %d", d.M.Rows, len(dd)))
	}
}

// Update implements Mat.
func (d *DenseMat) Update(scale float64, u, v tensor.Vector) { d.M.AddOuter(scale, u, v) }

// ForwardBatch implements BatchMat: the batch runs as one sample-blocked
// (row-tile × sample-block) grid on the par worker pool (par.MatVecBatch),
// amortizing each weight-row load over BatchSpan samples. The blocked kernel
// preserves the scalar reference summation order, so results are
// bit-identical to sequential Forward calls at every worker count.
func (d *DenseMat) ForwardBatch(xs []tensor.Vector) []tensor.Vector {
	for s, x := range xs {
		if len(x) != d.M.Cols {
			panic(fmt.Sprintf("nn: ForwardBatch expects %d inputs, got %d (sample %d)", d.M.Cols, len(x), s))
		}
	}
	return par.MatVecBatch(d.M, xs)
}

// InitXavier fills m with Xavier/Glorot-uniform weights using rng.
func InitXavier(m *tensor.Matrix, rng *rngutil.Source) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = rng.Uniform(-limit, limit)
	}
}

// Activation identifies an element-wise nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	TanhAct
	SigmoidAct
	ReLUAct
	SoftmaxAct // only valid as the output activation with cross-entropy loss
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case TanhAct:
		return "tanh"
	case SigmoidAct:
		return "sigmoid"
	case ReLUAct:
		return "relu"
	case SoftmaxAct:
		return "softmax"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

// apply computes the activation of the pre-activation vector z.
func (a Activation) apply(z tensor.Vector) tensor.Vector {
	switch a {
	case Identity:
		return z.Clone()
	case TanhAct:
		return tensor.Apply(z, tensor.Tanh)
	case SigmoidAct:
		return tensor.Apply(z, tensor.Sigmoid)
	case ReLUAct:
		return tensor.Apply(z, tensor.ReLU)
	case SoftmaxAct:
		return tensor.Softmax(z)
	}
	panic("nn: unknown activation")
}

// prime computes the derivative dy/dz given pre-activation z and activation y.
func (a Activation) prime(z, y tensor.Vector) tensor.Vector {
	out := make(tensor.Vector, len(z))
	switch a {
	case Identity:
		out.Fill(1)
	case TanhAct:
		for i := range out {
			out[i] = tensor.TanhPrime(y[i])
		}
	case SigmoidAct:
		for i := range out {
			out[i] = tensor.SigmoidPrime(y[i])
		}
	case ReLUAct:
		for i := range out {
			out[i] = tensor.ReLUPrime(z[i])
		}
	case SoftmaxAct:
		// Softmax derivative is handled jointly with cross-entropy in the
		// output delta; treated as identity here.
		out.Fill(1)
	default:
		panic("nn: unknown activation")
	}
	return out
}
