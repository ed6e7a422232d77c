package analog

import (
	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// zeroShiftedMat implements the zero-shifting technique (§II-B.5, paper
// ref. [30]). The array is first driven to its per-device symmetry points
// by alternating up/down pulses; the resulting weight matrix R is captured
// in a (frozen) reference array. The effective weight is W = A − R, so the
// logical zero weight coincides with the conductance state where
// potentiation and depression steps balance — exactly the condition under
// which SGD's ± updates accumulate gradients without bias.
type zeroShiftedMat struct {
	a   *crossbar.Array
	ref *tensor.Matrix // symmetry-point reference, programmed once and frozen
}

// newZeroShifted builds the array, locates symmetry points, captures the
// reference, and programs a small random initial effective weight.
func (s *Session) newZeroShifted(rows, cols int, label string) *zeroShiftedMat {
	a := s.newArray(rows, cols, label)
	a.AlternatePulseAll(s.opts.SymmetrizeIters)
	ref := a.Weights()
	z := &zeroShiftedMat{a: a, ref: ref}
	s.programRandomInit(a, ref, label)
	return z
}

// Rows implements nn.Mat.
func (z *zeroShiftedMat) Rows() int { return z.a.Rows() }

// Cols implements nn.Mat.
func (z *zeroShiftedMat) Cols() int { return z.a.Cols() }

// Forward implements nn.Mat: (A − R)·x via one analog MVM and one reference
// MVM (in hardware the reference is a second array or column sharing the
// read path; its cost is identical and not modelled separately here).
func (z *zeroShiftedMat) Forward(x tensor.Vector) tensor.Vector {
	y := z.a.Forward(x)
	y.Sub(z.ref.MatVec(x))
	return y
}

// Backward implements nn.Mat.
func (z *zeroShiftedMat) Backward(d tensor.Vector) tensor.Vector {
	y := z.a.Backward(d)
	y.Sub(z.ref.MatVecT(d))
	return y
}

// SkipBackward implements nn.BackwardSkipper: the frozen reference MVM has
// no side effects, so only the live array's cycle is left.
func (z *zeroShiftedMat) SkipBackward(d tensor.Vector) { z.a.SkipBackward(d) }

// Update implements nn.Mat: gradient pulses go to the live array only.
func (z *zeroShiftedMat) Update(scale float64, u, v tensor.Vector) {
	z.a.Update(scale, u, v)
}

var _ nn.BackwardSkipper = (*zeroShiftedMat)(nil)
