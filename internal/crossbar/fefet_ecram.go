package crossbar

import (
	"math"

	"repro/internal/rngutil"
)

// FeFETParams parameterizes a ferroelectric-FET synapse (§II-B.3):
// soft-bounds switching (partial-domain polarization), moderate asymmetry,
// and — its distinguishing limitation — finite endurance: after Endurance
// update pulses the gate stack degrades and the device freezes in place.
type FeFETParams struct {
	Soft      SoftBoundsParams
	Endurance int64 // total pulses before the device stops responding
}

// FeFETModel builds FeFET devices.
type FeFETModel struct {
	P FeFETParams
}

// FeFET returns a device with published-like FeFET behaviour: faster,
// lower-voltage writes than Flash (modelled by a larger step), asymmetric
// updates, and 10⁶-class endurance (§II-B.3 cites 10⁶–10⁹).
func FeFET() *FeFETModel {
	return &FeFETModel{P: FeFETParams{
		Soft: SoftBoundsParams{
			SlopeUp:    0.005,
			SlopeDown:  0.008,
			CycleNoise: 0.2,
			DeviceVar:  0.15,
			WMin:       -1, WMax: 1,
		},
		Endurance: 1_000_000,
	}}
}

// Name implements Model.
func (m *FeFETModel) Name() string { return "fefet" }

// MeanStep implements Model.
func (m *FeFETModel) MeanStep() float64 {
	return 0.5 * (m.P.Soft.SlopeUp*m.P.Soft.WMax + m.P.Soft.SlopeDown*(-m.P.Soft.WMin))
}

// WeightBounds implements Model.
func (m *FeFETModel) WeightBounds() (float64, float64) { return m.P.Soft.WMin, m.P.Soft.WMax }

// newCells builds soft-bounds cells with a wear counter each.
func (m *FeFETModel) newCells(n int, rng *rngutil.Source) cells {
	c := newSoftBoundsCells("fefet", m.P.Soft, n, rng)
	c.wear = make([]int64, n)
	c.endurance = m.P.Endurance
	return c
}

// wearOut charges n pulses against cell i's endurance and returns how many
// of them land: none once the cell is worn out, which leaves it stuck at
// its current state.
func (c *cells) wearOut(i, n int) int {
	if c.wear[i] >= c.endurance {
		return 0
	}
	remaining := c.endurance - c.wear[i]
	if int64(n) > remaining {
		n = int(remaining)
	}
	c.wear[i] += int64(n)
	return n
}

// ECRAMParams parameterizes an electrochemical RAM device (§II-B.4): the
// intrinsically analog, battery-like synapse with highly symmetric, nearly
// linear updates (~1000 steps), excellent SNR, but a nonzero open-circuit
// potential that relaxes the state toward a rest level over time.
type ECRAMParams struct {
	Linear    LinearStepParams
	RestLevel float64 // open-circuit equilibrium weight
	TauRelax  float64 // relaxation time constant in seconds (0 = none)
}

// ECRAMModel builds ECRAM devices.
type ECRAMModel struct {
	P ECRAMParams
}

// ECRAM returns a device with demonstrated ECRAM characteristics
// (paper ref. [42]): ~1000 symmetric up/down steps across the range and an
// order of magnitude lower cycle noise than RRAM, plus slow open-circuit
// relaxation representing the retention issue of §II-B.4.
func ECRAM() *ECRAMModel {
	return &ECRAMModel{P: ECRAMParams{
		Linear: LinearStepParams{
			DwMin:      0.002, // 1000 steps over [-1, 1]
			Asymmetry:  0.01,
			CycleNoise: 0.03,
			DeviceVar:  0.05,
			WMin:       -1, WMax: 1,
		},
		RestLevel: 0,
		TauRelax:  3600, // seconds
	}}
}

// Name implements Model.
func (m *ECRAMModel) Name() string { return "ecram" }

// MeanStep implements Model.
func (m *ECRAMModel) MeanStep() float64 { return m.P.Linear.DwMin }

// WeightBounds implements Model.
func (m *ECRAMModel) WeightBounds() (float64, float64) {
	return m.P.Linear.WMin, m.P.Linear.WMax
}

// newCells builds linear-step cells that relax toward the rest level.
func (m *ECRAMModel) newCells(n int, rng *rngutil.Source) cells {
	c := newLinearCells("ecram", m.P.Linear, n, rng)
	c.restLevel, c.tauRelax = m.P.RestLevel, m.P.TauRelax
	return c
}

// relaxECRAM applies exponential open-circuit relaxation toward the rest
// level to every cell not marked stuck.
func (c *cells) relaxECRAM(dt float64, stuck []bool) {
	f := math.Exp(-dt / c.tauRelax)
	for i := range c.w {
		if !stuck[i] {
			c.w[i] = c.restLevel + (c.w[i]-c.restLevel)*f
		}
	}
}
