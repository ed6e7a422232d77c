package crossbar

import (
	"math"

	"repro/internal/tensor"
)

// ProgramPolicy bounds the closed-loop write-verify-retry programming of
// ProgramVerify. Each round re-verifies every device and re-programs the
// ones still more than 1.5× the model's mean step from target, doubling the per-device pulse budget each
// retry (exponential pulse-count backoff): devices that converge cheaply
// never pay for the stragglers, while noisy or write-degraded devices get
// geometrically growing budgets instead of a single silent cap.
type ProgramPolicy struct {
	// MaxPulses is the per-device pulse budget of the first round.
	MaxPulses int
	// MaxRetries is the number of additional verify-retry rounds.
	MaxRetries int
}

// DefaultProgramPolicy mirrors the historical single-shot budget of 4000
// pulses, split into a cheap first round plus up to three doubling retries
// (1000 + 2000 + 4000 + 8000 worst case, but only for devices that need it).
func DefaultProgramPolicy() ProgramPolicy {
	return ProgramPolicy{MaxPulses: 1000, MaxRetries: 3}
}

// ProgramReport summarizes one ProgramVerify call — the observable that
// fault-campaign harnesses log and assert on.
type ProgramReport struct {
	// Rounds is the number of write-verify rounds run (1 = no retry needed).
	Rounds int
	// Pulses is the total write pulses attempted across all rounds.
	Pulses int
	// Residual is the mean |w − target| over yielding devices after the
	// final round, with the target clipped to the device's representable
	// range: range clipping is a quantization property of the technology,
	// not a programming failure the retry loop could fix.
	Residual float64
	// WorstErr is the worst yielding-device |w − target| after the final
	// round (clipped target).
	WorstErr float64
	// Failed counts yielding devices still outside tolerance after the
	// final round (programming failures), and Stuck the non-yielding
	// devices that write-verify cannot touch at all.
	Failed int
	Stuck  int
}

// ProgramVerify programs target into the array with bounded retries and
// exponential pulse-budget backoff per ProgramPolicy. It is the remediated
// write path of the fault-resilience study: under write failures or
// cycle-to-cycle noise, single-shot Program leaves stragglers that the
// retry rounds recover.
//
// Like Program, it owns the array exclusively for the whole multi-round
// pass (single-writer contract): a background recalibrator must hold the
// same lock its serving readers use, never interleave with them.
func (a *Array) ProgramVerify(target *tensor.Matrix, pol ProgramPolicy) ProgramReport {
	a.acquire()
	defer a.release()
	if target.Rows != a.rows || target.Cols != a.cols {
		panic("crossbar: ProgramVerify shape mismatch")
	}
	if pol.MaxPulses <= 0 {
		pol.MaxPulses = DefaultProgramPolicy().MaxPulses
	}
	tol := 1.5 * a.model.MeanStep()
	rep := ProgramReport{}
	budget := pol.MaxPulses
	for round := 0; ; round++ {
		rep.Rounds++
		progressed := false
		for idx := range a.stuck {
			if a.stuck[idx] {
				continue
			}
			if math.Abs(a.w.Data[idx]-a.clampToBounds(target.Data[idx])) <= tol {
				continue
			}
			p, _ := a.programDevice(idx, target.Data[idx], budget)
			rep.Pulses += p
			progressed = true
		}
		if !progressed || round >= pol.MaxRetries {
			break
		}
		if a.worstYieldingErr(target) <= tol {
			break
		}
		budget *= 2 // exponential backoff: stragglers get a bigger budget
	}
	var sum float64
	n := 0
	for idx := range a.stuck {
		if a.stuck[idx] {
			rep.Stuck++
			continue
		}
		e := math.Abs(a.w.Data[idx] - a.clampToBounds(target.Data[idx]))
		sum += e
		n++
		if e > rep.WorstErr {
			rep.WorstErr = e
		}
		if e > tol {
			rep.Failed++
		}
	}
	if n > 0 {
		rep.Residual = sum / float64(n)
	}
	return rep
}

func (a *Array) worstYieldingErr(target *tensor.Matrix) float64 {
	worst := 0.0
	for idx := range a.stuck {
		if a.stuck[idx] {
			continue
		}
		if e := math.Abs(a.w.Data[idx] - a.clampToBounds(target.Data[idx])); e > worst {
			worst = e
		}
	}
	return worst
}

// programDevice runs the write-verify loop on one yielding device: read,
// compare against want, pulse toward it, stop when within one mean step or
// when the pulse budget runs out. The controller aims at the nearest
// representable weight — a target beyond the device bounds would otherwise
// burn the whole budget pushing into the rail. Pulses are issued through
// the fault-hook write path, so dropped writes consume budget — exactly the
// closed-loop behaviour of a real programming controller. It reports pulses
// attempted and the remaining error against the requested target.
//
// Each pulse law has its own loop, which keeps the device's state in
// locals across pulses and applies the arithmetic of that law's cells
// method (pulseLinear, pulseSoftBounds with wearOut, pulsePCM) in the
// same order, with the same draws; the planes and Counts.Pulses are
// written once, when the loop ends. FuzzProgramDevice pins each loop
// against single pulses through UpdateDeviceExact.
func (a *Array) programDevice(idx int, want float64, maxPulses int) (pulses int, err float64) {
	dw := a.model.MeanStep()
	aim := a.clampToBounds(want)
	var landed int64
	switch a.cells.law {
	case lawLinear:
		pulses, landed = a.programLinear(idx, aim, dw, maxPulses)
	case lawSoftBounds:
		pulses, landed = a.programSoftBounds(idx, aim, dw, maxPulses)
	case lawPCM:
		pulses, landed = a.programPCM(idx, aim, dw, maxPulses)
	}
	a.Counts.Pulses += landed
	return pulses, math.Abs(want - a.cells.w[idx])
}

// filterPulse asks the fault hook, if any, how many of one pulse on
// (row, col) land.
func (a *Array) filterPulse(row, col int, up bool) int {
	if a.hook == nil {
		return 1
	}
	return a.hook.FilterPulses(a, row, col, 1, up)
}

// programLinear is programDevice's loop for the state-independent step law
// (linear-step and ECRAM cells). It returns the pulses attempted and the
// pulses that landed.
func (a *Array) programLinear(idx int, aim, dw float64, maxPulses int) (pulses int, landed int64) {
	c := &a.cells
	p := &c.lin
	rng := a.rng
	row, col := idx/a.cols, idx%a.cols
	base := p.DwMin * c.scale[idx]
	stepUp, stepDown := base*(1+p.Asymmetry), base*(1-p.Asymmetry)
	noise, wMin, wMax := p.CycleNoise, p.WMin, p.WMax
	w := c.w[idx]
	for ; pulses < maxPulses; pulses++ {
		diff := aim - w
		if math.Abs(diff) < dw {
			break
		}
		up := diff > 0
		k := a.filterPulse(row, col, up)
		if k <= 0 {
			continue
		}
		landed += int64(k)
		for ; k > 0; k-- {
			step := stepDown
			if up {
				step = stepUp
			}
			if noise > 0 {
				step *= 1 + rng.Normal(0, noise)
			}
			if up {
				w += step
			} else {
				w -= step
			}
			if w < wMin {
				w = wMin
			} else if w > wMax {
				w = wMax
			}
		}
	}
	c.w[idx] = w
	return pulses, landed
}

// programSoftBounds is programDevice's loop for the saturating step law
// (soft-bounds cells, and FeFET cells, whose pulses first pass wearOut's
// endurance check: a worn-out cell takes the pulse and does not move).
func (a *Array) programSoftBounds(idx int, aim, dw float64, maxPulses int) (pulses int, landed int64) {
	c := &a.cells
	p := &c.soft
	rng := a.rng
	row, col := idx/a.cols, idx%a.cols
	gainUp, gainDown := p.SlopeUp*c.up[idx], p.SlopeDown*c.down[idx]
	noise, wMin, wMax := p.CycleNoise, p.WMin, p.WMax
	wears := c.wear != nil
	var wear int64
	if wears {
		wear = c.wear[idx]
	}
	w := c.w[idx]
	for ; pulses < maxPulses; pulses++ {
		diff := aim - w
		if math.Abs(diff) < dw {
			break
		}
		up := diff > 0
		k := a.filterPulse(row, col, up)
		if k <= 0 {
			continue
		}
		landed += int64(k)
		if wears {
			if wear >= c.endurance {
				continue
			}
			if remaining := c.endurance - wear; int64(k) > remaining {
				k = int(remaining)
			}
			wear += int64(k)
		}
		for ; k > 0; k-- {
			var step float64
			if up {
				step = gainUp * (wMax - w)
			} else {
				step = gainDown * (w - wMin)
			}
			if step < 0 {
				step = 0
			}
			if noise > 0 {
				step *= 1 + rng.Normal(0, noise)
			}
			if up {
				w += step
			} else {
				w -= step
			}
			if w < wMin {
				w = wMin
			} else if w > wMax {
				w = wMax
			}
		}
	}
	c.w[idx] = w
	if wears {
		c.wear[idx] = wear
	}
	return pulses, landed
}

// programPCM is programDevice's loop for the PCM pair: each pulse raises
// one leg, and the pair's weight G⁺ − G⁻ is what the next verify reads.
func (a *Array) programPCM(idx int, aim, dw float64, maxPulses int) (pulses int, landed int64) {
	c := &a.cells
	p := &c.pcm
	rng := a.rng
	row, col := idx/a.cols, idx%a.cols
	dgScale := p.DG * c.scale[idx]
	noise, gMax := p.CycleNoise, p.GMax
	gp, gn, w := c.gp[idx], c.gn[idx], c.w[idx]
	for ; pulses < maxPulses; pulses++ {
		diff := aim - w
		if math.Abs(diff) < dw {
			break
		}
		up := diff > 0
		k := a.filterPulse(row, col, up)
		if k <= 0 {
			continue
		}
		landed += int64(k)
		g := gn
		if up {
			g = gp
		}
		for ; k > 0; k-- {
			headroom := 1 - g/gMax
			if headroom < 0 {
				headroom = 0
			}
			step := dgScale * (headroom * headroom)
			if noise > 0 {
				step *= 1 + rng.Normal(0, noise)
			}
			if step < 0 {
				step = 0
			}
			g += step
			if g > gMax {
				g = gMax
			}
		}
		if up {
			gp = g
		} else {
			gn = g
		}
		w = gp - gn
	}
	c.gp[idx], c.gn[idx], c.w[idx] = gp, gn, w
	return pulses, landed
}
