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
