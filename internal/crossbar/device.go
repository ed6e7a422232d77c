// Package crossbar simulates analog resistive crossbar arrays — the
// Resistive Processing Unit (RPU) substrate of §II of the paper. It models
// the three array cycles of Fig. 1 (forward MVM, backward transposed MVM,
// and the fully parallel stochastic-pulse rank-1 update) together with the
// device non-idealities that drive the paper's discussion: bounded and
// state-dependent conductance steps, update asymmetry, cycle-to-cycle and
// device-to-device variability, stuck (non-yielding) crosspoints, PCM
// unidirectionality and drift, and FeFET endurance. The periphery is
// ideal: reads are exact MVMs.
//
// The simulation methodology follows the paper's ref. [14] (Gokmen &
// Vlasov): devices are behavioural — they expose how the weight changes per
// voltage pulse — and training algorithms interact with them only through
// pulse statistics, never through direct weight writes.
package crossbar

import (
	"math"

	"repro/internal/rngutil"
)

// Model is a device technology: it builds the crosspoint state of an
// array and documents nominal array-level properties. Models are defined
// only in this package; each one is a per-pulse law on flat cell planes
// (see cells.go).
type Model interface {
	// Name identifies the technology, e.g. "rram-softbounds".
	Name() string
	// MeanStep is the nominal per-pulse |Δw| at w≈0; trainers use it to
	// convert learning rates into pulse probabilities.
	MeanStep() float64
	// WeightBounds reports the representable weight range.
	WeightBounds() (lo, hi float64)
	// newCells returns n fresh cells, drawing device-to-device variation
	// from rng in cell order.
	newCells(n int, rng *rngutil.Source) cells
}

// ---------------------------------------------------------------------------
// Ideal / linear-step device
// ---------------------------------------------------------------------------

// LinearStepParams parameterizes a device with a state-independent step.
// Asymmetry a scales potentiation steps by (1+a) and depression steps by
// (1-a); the paper's RPU spec (§II-A) requires |a| within a few percent.
type LinearStepParams struct {
	DwMin      float64 // nominal per-pulse weight change
	Asymmetry  float64 // up/down step imbalance in [-1, 1]
	CycleNoise float64 // per-pulse multiplicative noise std (relative)
	DeviceVar  float64 // device-to-device step-size variation std (relative)
	WMin, WMax float64 // weight bounds
}

// LinearStepModel is a bidirectional device with constant (state-
// independent) steps — the "ideal" reference when Asymmetry, CycleNoise and
// DeviceVar are zero.
type LinearStepModel struct {
	P LinearStepParams
}

// Ideal returns a perfectly symmetric, noiseless device meeting the RPU
// spec: per-pulse step equal to 0.1 % of the weight range.
func Ideal() *LinearStepModel {
	return &LinearStepModel{P: LinearStepParams{
		DwMin: 0.002, WMin: -1, WMax: 1, // 0.002/2.0 = 0.1 % of range
	}}
}

// Name implements Model.
func (m *LinearStepModel) Name() string { return "linear-step" }

// MeanStep implements Model.
func (m *LinearStepModel) MeanStep() float64 { return m.P.DwMin }

// WeightBounds implements Model.
func (m *LinearStepModel) WeightBounds() (float64, float64) { return m.P.WMin, m.P.WMax }

func (m *LinearStepModel) newCells(n int, rng *rngutil.Source) cells {
	return newLinearCells("linear-step", m.P, n, rng)
}

// newLinearCells draws one step scale per cell; all weights start at 0.
func newLinearCells(kind string, p LinearStepParams, n int, rng *rngutil.Source) cells {
	c := cells{law: lawLinear, kind: kind, lin: p, w: make([]float64, n),
		scale: newScales(n, p.DeviceVar, rng)}
	c.state = [][]float64{c.w, c.scale}
	c.refreshUniform()
	return c
}

// newScales draws n per-cell step scales N(1, deviceVar), floored at 0.05
// (all 1 without device-to-device variation).
func newScales(n int, deviceVar float64, rng *rngutil.Source) []float64 {
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 1.0
		if deviceVar > 0 {
			scale[i] = math.Max(0.05, rng.Normal(1, deviceVar))
		}
	}
	return scale
}

// pulseLinear applies n pulses of the state-independent step law to cell i.
func (c *cells) pulseLinear(i, n int, up bool, rng *rngutil.Source) {
	p := &c.lin
	w := c.w[i]
	for k := 0; k < n; k++ {
		step := p.DwMin * c.scale[i]
		if up {
			step *= 1 + p.Asymmetry
		} else {
			step *= 1 - p.Asymmetry
		}
		if p.CycleNoise > 0 {
			step *= 1 + rng.Normal(0, p.CycleNoise)
		}
		if up {
			w += step
		} else {
			w -= step
		}
		if w < p.WMin {
			w = p.WMin
		} else if w > p.WMax {
			w = p.WMax
		}
	}
	c.w[i] = w
}

// ---------------------------------------------------------------------------
// Soft-bounds (RRAM-like) device
// ---------------------------------------------------------------------------

// SoftBoundsParams parameterizes a device whose step size shrinks as the
// weight approaches its bounds — the saturating, asymmetric behaviour that
// filamentary RRAM exhibits (Fig. 2). The potentiation step at weight w is
// SlopeUp·(WMax−w) and the depression step is SlopeDown·(w−WMin); both decay
// to zero at the respective bound, producing the exponential-looking
// potentiation/depression envelopes of the figure.
type SoftBoundsParams struct {
	SlopeUp    float64 // potentiation gain per pulse
	SlopeDown  float64 // depression gain per pulse
	CycleNoise float64 // per-pulse multiplicative noise std (relative)
	DeviceVar  float64 // device-to-device slope variation std (relative)
	WMin, WMax float64
}

// SoftBoundsModel is the RRAM-like device model.
type SoftBoundsModel struct {
	P SoftBoundsParams
}

// RRAM returns a soft-bounds device with the qualitative characteristics
// reported for analog filamentary RRAM (paper refs. [22], [30]): strongly
// state-dependent steps, noticeable up/down imbalance, and per-pulse
// stochasticity, with ~1000 resolvable states across the range.
func RRAM() *SoftBoundsModel {
	return &SoftBoundsModel{P: SoftBoundsParams{
		SlopeUp:    0.004,
		SlopeDown:  0.006, // aggressive asymmetry, §II-B.5
		CycleNoise: 0.3,
		DeviceVar:  0.2,
		WMin:       -1, WMax: 1,
	}}
}

// Name implements Model.
func (m *SoftBoundsModel) Name() string { return "rram-softbounds" }

// MeanStep implements Model.
func (m *SoftBoundsModel) MeanStep() float64 {
	// Nominal step at w=0.
	return 0.5 * (m.P.SlopeUp*m.P.WMax + m.P.SlopeDown*(-m.P.WMin))
}

// WeightBounds implements Model.
func (m *SoftBoundsModel) WeightBounds() (float64, float64) { return m.P.WMin, m.P.WMax }

func (m *SoftBoundsModel) newCells(n int, rng *rngutil.Source) cells {
	return newSoftBoundsCells("soft-bounds", m.P, n, rng)
}

// newSoftBoundsCells draws the up and down slope scales of each cell, in
// that order; all weights start at 0.
func newSoftBoundsCells(kind string, p SoftBoundsParams, n int, rng *rngutil.Source) cells {
	c := cells{law: lawSoftBounds, kind: kind, soft: p,
		w: make([]float64, n), up: make([]float64, n), down: make([]float64, n)}
	for i := range c.up {
		c.up[i], c.down[i] = 1, 1
		if p.DeviceVar > 0 {
			c.up[i] = math.Max(0.05, rng.Normal(1, p.DeviceVar))
			c.down[i] = math.Max(0.05, rng.Normal(1, p.DeviceVar))
		}
	}
	c.state = [][]float64{c.w, c.up, c.down}
	return c
}

// SymmetryPoint returns the weight at which mean potentiation and
// depression steps balance — the fixed point reached under alternating
// up/down pulsing, used by the zero-shifting technique (§II-B.5).
func (m *SoftBoundsModel) SymmetryPoint() float64 {
	// SlopeUp·(WMax−w*) = SlopeDown·(w*−WMin)
	return (m.P.SlopeUp*m.P.WMax + m.P.SlopeDown*m.P.WMin) / (m.P.SlopeUp + m.P.SlopeDown)
}

// pulseSoftBounds applies n pulses of the saturating step law to cell i.
func (c *cells) pulseSoftBounds(i, n int, up bool, rng *rngutil.Source) {
	p := &c.soft
	w := c.w[i]
	for k := 0; k < n; k++ {
		var step float64
		if up {
			step = p.SlopeUp * c.up[i] * (p.WMax - w)
		} else {
			step = p.SlopeDown * c.down[i] * (w - p.WMin)
		}
		if step < 0 {
			step = 0
		}
		if p.CycleNoise > 0 {
			step *= 1 + rng.Normal(0, p.CycleNoise)
		}
		if up {
			w += step
		} else {
			w -= step
		}
		if w < p.WMin {
			w = p.WMin
		} else if w > p.WMax {
			w = p.WMax
		}
	}
	c.w[i] = w
}
