package crossbar

import "repro/internal/rngutil"

// pulseLaw selects the per-pulse arithmetic a cell store applies. Five
// device models share three laws: ECRAM is linear-step cells that also
// relax, FeFET is soft-bounds cells that also wear out.
type pulseLaw uint8

const (
	lawLinear pulseLaw = iota
	lawSoftBounds
	lawPCM
)

// cells is the state of every crosspoint of an array, stored as flat
// row-major planes, one per state variable, instead of one object per
// device. w is the weight every MVM reads (the array's mirror matrix
// aliases it): for the single-weight laws it is the device state itself,
// for a PCM pair it is G⁺ − G⁻, rewritten whenever a leg changes. A cell
// frozen at a corrupt value (StuckValueStd, FreezeAt) shows that value in
// w; a single-weight cell's own weight is then kept aside in frozen, so
// checkpoints still carry it (a PCM pair keeps its own state in its legs).
// Stuck cells never change afterwards, so this costs nothing per pulse.
type cells struct {
	law  pulseLaw
	kind string // DeviceState.Kind of every cell

	// The model parameters of the law, copied at construction.
	lin                 LinearStepParams
	soft                SoftBoundsParams
	pcm                 PCMParams
	endurance           int64   // FeFET: pulses before a cell stops responding
	restLevel, tauRelax float64 // ECRAM open-circuit relaxation (off if tauRelax ≤ 0)

	w        []float64
	scale    []float64 // per-cell step scale (linear, PCM)
	up, down []float64 // per-cell slope scales (soft bounds)
	gp, gn   []float64 // PCM legs G⁺ and G⁻
	wear     []int64   // FeFET pulses consumed (nil for other models)
	frozen   map[int]float64
	// state lists the planes of DeviceState.F in order: {w, scale} for
	// linear-step and ecram, {w, up, down} for soft-bounds and fefet (whose
	// N is {wear}), {gp, gn, scale} for pcm.
	state [][]float64

	// uniformScale is set when every linear cell has the same step scale
	// (DeviceVar 0, or a checkpoint that restored uniform scales): the
	// noiseless-linear update kernel then folds the scale into its
	// per-column step table.
	uniformScale bool
}

// pulse applies n potentiation (up) or depression pulses to cell i, drawing
// cycle noise from rng, and leaves the new weight in w[i].
func (c *cells) pulse(i, n int, up bool, rng *rngutil.Source) {
	switch c.law {
	case lawLinear:
		c.pulseLinear(i, n, up, rng)
	case lawSoftBounds:
		if c.wear != nil {
			n = c.wearOut(i, n)
		}
		c.pulseSoftBounds(i, n, up, rng)
	case lawPCM:
		c.pulsePCM(i, n, up, rng)
	}
}

// drift advances dt seconds of drift or relaxation on every cell not
// marked stuck (a no-op for models without either).
func (c *cells) drift(dt float64, stuck []bool) {
	switch {
	case c.law == lawPCM:
		c.driftPCM(dt, stuck)
	case c.tauRelax > 0:
		c.relaxECRAM(dt, stuck)
	}
}

// freezeAt shows v as cell i's weight from now on, keeping a single-weight
// cell's own weight aside the first time it is overwritten.
func (c *cells) freezeAt(i int, v float64) {
	if _, ok := c.frozen[i]; !ok && c.law != lawPCM {
		c.keepOwn(i, c.w[i])
	}
	c.w[i] = v
}

// keepOwn records v as the own weight of cell i, frozen at another value.
func (c *cells) keepOwn(i int, v float64) {
	if c.frozen == nil {
		c.frozen = map[int]float64{}
	}
	c.frozen[i] = v
}

// refreshUniform recomputes uniformScale (by value, so it also holds after
// checkpoint restore).
func (c *cells) refreshUniform() {
	c.uniformScale = true
	for _, s := range c.scale {
		if s != c.scale[0] {
			c.uniformScale = false
			return
		}
	}
}
