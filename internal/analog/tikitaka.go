package analog

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tikiTakaMat implements the Tiki-Taka training algorithm (§II-B.5, paper
// ref. [35]): a coupled dynamical system of two arrays. The fast array A
// (zero-shifted) absorbs the raw stochastic gradient updates; because an
// asymmetric device drifts toward its symmetry point under ± pulsing, A
// behaves like a leaky gradient accumulator whose leak cancels the implicit
// asymmetry-induced cost term. Periodically, one column of A is read and
// transferred into the slow array C, which holds the actual weights. The
// effective weight is W = C + γ·A.
type tikiTakaMat struct {
	a, c          *zeroShiftedMat
	gamma         float64
	transferEvery int
	transferLR    float64

	updates int // updates since last transfer
	nextCol int // round-robin transfer column
}

// newTikiTaka builds the A and C arrays for one layer.
func (s *Session) newTikiTaka(rows, cols int, label string) *tikiTakaMat {
	t := &tikiTakaMat{
		gamma:         s.opts.TTGamma,
		transferEvery: s.opts.TTTransferEvery,
		transferLR:    s.opts.TTTransferLR,
	}
	if t.transferEvery <= 0 {
		t.transferEvery = 2
	}
	// A starts exactly at its symmetry point (zero effective weight): build
	// a zero-shifted array without the random-init programming.
	a := s.newArray(rows, cols, label+"-A")
	a.AlternatePulseAll(s.opts.SymmetrizeIters)
	t.a = &zeroShiftedMat{a: a, ref: a.Weights()}
	// C carries the (random) initial network weights.
	t.c = s.newZeroShifted(rows, cols, label+"-C")
	return t
}

// Rows implements nn.Mat.
func (t *tikiTakaMat) Rows() int { return t.c.Rows() }

// Cols implements nn.Mat.
func (t *tikiTakaMat) Cols() int { return t.c.Cols() }

// Forward implements nn.Mat: y = C·x + γ·A·x (two analog MVMs).
func (t *tikiTakaMat) Forward(x tensor.Vector) tensor.Vector {
	y := t.c.Forward(x)
	y.AXPY(t.gamma, t.a.Forward(x))
	return y
}

// Backward implements nn.Mat.
func (t *tikiTakaMat) Backward(d tensor.Vector) tensor.Vector {
	y := t.c.Backward(d)
	y.AXPY(t.gamma, t.a.Backward(d))
	return y
}

// SkipBackward implements nn.BackwardSkipper: both arrays' cycles, in
// Backward's order.
func (t *tikiTakaMat) SkipBackward(d tensor.Vector) {
	t.c.SkipBackward(d)
	t.a.SkipBackward(d)
}

// Update implements nn.Mat: stochastic gradient pulses land on A; every
// transferEvery updates one column of A is read out (a single forward array
// operation with a one-hot input) and written into C with a rank-1 pulse
// update, cycling through columns round-robin.
func (t *tikiTakaMat) Update(scale float64, u, v tensor.Vector) {
	t.a.Update(scale, u, v)
	t.updates++
	if t.updates < t.transferEvery {
		return
	}
	t.updates = 0
	oneHot := tensor.NewVector(t.Cols())
	oneHot[t.nextCol] = 1
	colVals := t.a.Forward(oneHot) // reads column nextCol of A
	t.c.Update(t.transferLR, colVals, oneHot)
	t.nextCol = (t.nextCol + 1) % t.Cols()
}

var _ nn.BackwardSkipper = (*tikiTakaMat)(nil)
