package analog

import (
	"math"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// mixedPrecisionMat implements mixed-precision training (§II-B.1, paper
// ref. [25]): matrix-vector products run on the analog array, but weight
// updates accumulate in a digital floating-point buffer χ. Whenever an
// accumulated entry exceeds the device step Δw, the integer number of steps
// is flushed to the device as pulses and subtracted from χ. This removes
// the update-noise and asymmetry sensitivity at the cost of giving up the
// O(1) parallel update (the buffer update is a digital rank-1 op).
type mixedPrecisionMat struct {
	a   *crossbar.Array
	chi *tensor.Matrix // digital accumulator
	dw  float64
	rng *rngutil.Source
}

func newMixedPrecision(a *crossbar.Array, dw float64, rng *rngutil.Source) *mixedPrecisionMat {
	return &mixedPrecisionMat{
		a:   a,
		chi: tensor.NewMatrix(a.Rows(), a.Cols()),
		dw:  dw,
		rng: rng,
	}
}

// Rows implements nn.Mat.
func (m *mixedPrecisionMat) Rows() int { return m.a.Rows() }

// Cols implements nn.Mat.
func (m *mixedPrecisionMat) Cols() int { return m.a.Cols() }

// Forward implements nn.Mat (analog MVM).
func (m *mixedPrecisionMat) Forward(x tensor.Vector) tensor.Vector { return m.a.Forward(x) }

// Backward implements nn.Mat (analog transposed MVM).
func (m *mixedPrecisionMat) Backward(d tensor.Vector) tensor.Vector { return m.a.Backward(d) }

// SkipBackward implements nn.BackwardSkipper.
func (m *mixedPrecisionMat) SkipBackward(d tensor.Vector) { m.a.SkipBackward(d) }

// Update implements nn.Mat: accumulate digitally, flush whole device steps
// as exact pulse bursts to individual crosspoints.
func (m *mixedPrecisionMat) Update(scale float64, u, v tensor.Vector) {
	m.chi.AddOuter(scale, u, v)
	cols := m.a.Cols()
	for i := 0; i < m.a.Rows(); i++ {
		row := m.chi.Data[i*cols : (i+1)*cols]
		for j, acc := range row {
			if math.Abs(acc) < m.dw {
				continue
			}
			k := int(math.Abs(acc) / m.dw)
			m.a.UpdateDeviceExact(i, j, k, acc > 0)
			flushed := float64(k) * m.dw
			if acc < 0 {
				flushed = -flushed
			}
			row[j] = acc - flushed
		}
	}
}

var _ nn.BackwardSkipper = (*mixedPrecisionMat)(nil)
