package crossbar

import (
	"math"

	"repro/internal/rngutil"
)

// PCMParams parameterizes the phase-change-memory differential pair of
// §II-B.1. Each leg is a unidirectional conductance in [0, GMax] whose
// potentiation step shrinks quadratically as it crystallizes (saturates):
// step = DG·(1−g/GMax)², with no exponent parameter. The signed weight is
// w = G⁺ − G⁻. Depression of the weight is implemented by potentiating
// the negative leg. Both legs drift toward lower conductance over time
// with exponent Nu; a projection liner (§II-B.1, refs. [26],[27]) divides
// the effective drift exponent by ProjectionFactor.
type PCMParams struct {
	DG         float64 // nominal conductance increment per pulse
	GMax       float64 // per-leg conductance ceiling
	CycleNoise float64 // per-pulse multiplicative noise std
	DeviceVar  float64 // device-to-device increment variation std
	Nu         float64 // drift exponent ν: g(t) = g·(1+t/T0)^(−ν)
	T0         float64 // drift reference time in seconds
	Projection float64 // ≥1; liner factor dividing ν (1 = no liner)
}

// PCMModel builds PCM differential-pair devices.
type PCMModel struct {
	P PCMParams
}

// PCM returns a differential-pair model with literature-typical analog PCM
// behaviour: saturating unidirectional SET, ~1 % cycle noise floor, and
// resistance drift with ν ≈ 0.03 (unprojected).
func PCM() *PCMModel {
	return &PCMModel{P: PCMParams{
		DG:         0.004,
		GMax:       1.0,
		CycleNoise: 0.25,
		DeviceVar:  0.15,
		Nu:         0.03,
		T0:         1.0,
		Projection: 1.0,
	}}
}

// PCMProjected returns the same device with a metallic projection liner
// that suppresses drift by roughly an order of magnitude.
func PCMProjected() *PCMModel {
	m := PCM()
	m.P.Projection = 10
	return m
}

// Name implements Model.
func (m *PCMModel) Name() string {
	if m.P.Projection > 1 {
		return "pcm-projected"
	}
	return "pcm"
}

// MeanStep implements Model.
func (m *PCMModel) MeanStep() float64 {
	// Step at g = GMax/2, the mid-programming regime: DG·(1/2)².
	return m.P.DG * 0.25
}

// WeightBounds implements Model.
func (m *PCMModel) WeightBounds() (float64, float64) { return -m.P.GMax, m.P.GMax }

// newCells starts both legs of every pair mid-range, so each pair has
// programming headroom in both directions, as done when arrays are
// initialized for training.
func (m *PCMModel) newCells(n int, rng *rngutil.Source) cells {
	c := cells{law: lawPCM, kind: "pcm", pcm: m.P, w: make([]float64, n),
		scale: newScales(n, m.P.DeviceVar, rng), gp: make([]float64, n), gn: make([]float64, n)}
	for i := range c.w {
		c.gp[i], c.gn[i] = 0.25*m.P.GMax, 0.25*m.P.GMax
		c.w[i] = c.gp[i] - c.gn[i]
	}
	c.state = [][]float64{c.gp, c.gn, c.scale}
	return c
}

// pulsePCM applies n pulses to one leg of pair i: potentiation raises G⁺,
// depression raises G⁻. It then writes the pair's weight G⁺ − G⁻.
func (c *cells) pulsePCM(i, n int, up bool, rng *rngutil.Source) {
	p := &c.pcm
	g := c.gn
	if up {
		g = c.gp
	}
	for k := 0; k < n; k++ {
		headroom := 1 - g[i]/p.GMax
		if headroom < 0 {
			headroom = 0
		}
		// headroom·headroom is bitwise math.Pow(headroom, 2): a nonzero
		// headroom is ≥ 2⁻⁵³, so its square is never subnormal and both
		// are the correctly rounded square (TestPCMSquareMatchesPow).
		step := p.DG * c.scale[i] * (headroom * headroom)
		if p.CycleNoise > 0 {
			step *= 1 + rng.Normal(0, p.CycleNoise)
		}
		if step < 0 {
			step = 0
		}
		g[i] += step
		if g[i] > p.GMax {
			g[i] = p.GMax
		}
	}
	c.w[i] = c.gp[i] - c.gn[i]
}

// driftPCM decays both legs of every pair not marked stuck; the liner
// (Projection > 1) reduces the effective exponent.
func (c *cells) driftPCM(dt float64, stuck []bool) {
	nu := c.pcm.Nu / c.pcm.Projection
	f := math.Pow(1+dt/c.pcm.T0, -nu)
	for i := range c.w {
		if stuck[i] {
			continue
		}
		c.gp[i] *= f
		c.gn[i] *= f
		c.w[i] = c.gp[i] - c.gn[i]
	}
}

// resetPCM is the simultaneous RESET that keeps each pair's weight while
// restoring programming headroom (§II-B.1): the common mode min(G⁺, G⁻)
// is removed from both legs of every pair not marked stuck.
func (c *cells) resetPCM(stuck []bool) {
	for i := range c.w {
		if stuck[i] {
			continue
		}
		common := math.Min(c.gp[i], c.gn[i])
		c.gp[i] -= common
		c.gn[i] -= common
		c.w[i] = c.gp[i] - c.gn[i]
	}
}

// maxSaturationPCM reports how much of the per-leg range the fullest pair
// consumes, the quantity that forces periodic resets: max(G⁺, G⁻)/GMax.
func (c *cells) maxSaturationPCM() float64 {
	var worst float64
	for i := range c.gp {
		if s := math.Max(c.gp[i], c.gn[i]) / c.pcm.GMax; s > worst {
			worst = s
		}
	}
	return worst
}
