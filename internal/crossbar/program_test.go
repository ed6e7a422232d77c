package crossbar

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func randomTarget(rows, cols int, scale float64, seed uint64) *tensor.Matrix {
	rng := rngutil.New(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Uniform(-scale, scale)
	}
	return m
}

func TestProgramReportsPulsesAndResidual(t *testing.T) {
	a := idealArray(6, 5, 61)
	target := randomTarget(6, 5, 0.5, 62)
	pulses, residual := a.Program(target, 2000)
	if pulses <= 0 {
		t.Fatal("programming from scratch must spend pulses")
	}
	if residual > 1.5*Ideal().MeanStep() {
		t.Fatalf("ideal-device residual %v should be within write-verify resolution", residual)
	}
	// A second pass has nothing left to do.
	pulses2, _ := a.Program(target, 2000)
	if pulses2 != 0 {
		t.Fatalf("re-programming a converged array spent %d pulses", pulses2)
	}
}

// Program must converge on noisy, asymmetric RRAM too, just less tightly
// than on the ideal device.
func TestProgramConvergenceRRAMvsIdeal(t *testing.T) {
	tIdeal := randomTarget(8, 8, 0.4, 71)
	ideal := NewArray(8, 8, Ideal(), DefaultConfig(), rngutil.New(72))
	rram := NewArray(8, 8, RRAM(), DefaultConfig(), rngutil.New(72))
	_, rIdeal := ideal.Program(tIdeal, 4000)
	_, rRRAM := rram.Program(tIdeal, 4000)
	if rIdeal > 1.5*Ideal().MeanStep() {
		t.Fatalf("ideal residual %v too large", rIdeal)
	}
	if rRRAM > 5*RRAM().MeanStep() {
		t.Fatalf("rram residual %v did not converge", rRRAM)
	}
	if rRRAM <= rIdeal {
		t.Fatalf("noisy rram (%v) should not beat the ideal device (%v)", rRRAM, rIdeal)
	}
}

// Out-of-range targets must not burn the pulse budget: the controller aims
// at the nearest representable weight.
func TestProgramClampsUnreachableTargets(t *testing.T) {
	a := idealArray(1, 1, 73)
	tgt := tensor.NewMatrix(1, 1)
	tgt.Set(0, 0, 5) // far beyond WMax = 1
	pulses, _ := a.Program(tgt, 10000)
	_, hi := Ideal().WeightBounds()
	need := int(hi/Ideal().MeanStep()) + 2
	if pulses > need {
		t.Fatalf("spent %d pulses on a clipped target; the rail is %d away", pulses, need)
	}
	if math.Abs(a.Weights().At(0, 0)-hi) > 2*Ideal().MeanStep() {
		t.Fatalf("weight %v should sit at the bound %v", a.Weights().At(0, 0), hi)
	}
}

// dropHook drops pulse trains with probability p — a minimal write-failure
// injector for exercising the retry loop without importing package faults.
type dropHook struct {
	NopHook
	rng *rngutil.Source
	p   float64
}

func (h *dropHook) FilterPulses(a *Array, row, col, k int, up bool) int {
	if h.rng.Bernoulli(h.p) {
		return 0
	}
	return k
}

func TestProgramVerifyRetryBeatsSingleShotUnderWriteFailures(t *testing.T) {
	target := randomTarget(6, 6, 0.5, 81)

	single := idealArray(6, 6, 82)
	single.SetFaultHook(&dropHook{rng: rngutil.New(83), p: 0.4})
	_, rSingle := single.Program(target, 150)

	retried := idealArray(6, 6, 82)
	retried.SetFaultHook(&dropHook{rng: rngutil.New(83), p: 0.4})
	rep := retried.ProgramVerify(target, ProgramPolicy{MaxPulses: 150, MaxRetries: 4})

	if rSingle < 10*Ideal().MeanStep() {
		t.Fatalf("single-shot residual %v unexpectedly small; test needs write pressure", rSingle)
	}
	if rep.Residual >= rSingle/2 {
		t.Fatalf("retry residual %v should clearly beat single-shot %v", rep.Residual, rSingle)
	}
	if rep.Rounds < 2 {
		t.Fatalf("expected retry rounds under write failures, got %d", rep.Rounds)
	}
	if rep.Failed != 0 {
		t.Fatalf("retry should converge: %+v", rep)
	}
}

func TestProgramVerifyCountsStuck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StuckFraction = 0.5
	cfg.StuckValueStd = 0.3
	a := NewArray(10, 10, Ideal(), cfg, rngutil.New(91))
	rep := a.ProgramVerify(randomTarget(10, 10, 0.3, 92), DefaultProgramPolicy())
	if rep.Stuck != a.StuckCount() {
		t.Fatalf("report counts %d stuck, array has %d", rep.Stuck, a.StuckCount())
	}
	if rep.Stuck == 0 {
		t.Fatal("half-stuck array should report stuck devices")
	}
}

// The corrupt-value draw comes from its own RNG stream, so turning
// StuckValueStd on must not move which devices are stuck (the yield draw):
// C3-style experiments stay comparable across the two stuck models.
func TestStuckMaskIndependentOfValueModel(t *testing.T) {
	base := DefaultConfig()
	base.StuckFraction = 0.3
	corrupt := base
	corrupt.StuckValueStd = 0.5
	a := NewArray(12, 12, Ideal(), base, rngutil.New(101))
	b := NewArray(12, 12, Ideal(), corrupt, rngutil.New(101))
	if a.StuckCount() != b.StuckCount() {
		t.Fatalf("stuck counts differ: %d vs %d", a.StuckCount(), b.StuckCount())
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if a.IsStuck(i, j) != b.IsStuck(i, j) {
				t.Fatalf("stuck mask differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestFreezeAtClipsAndFreezes(t *testing.T) {
	a := idealArray(3, 3, 103)
	a.FreezeAt(1, 2, 7)
	if !a.IsStuck(1, 2) {
		t.Fatal("FreezeAt must mark the device stuck")
	}
	_, hi := Ideal().WeightBounds()
	if got := a.DeviceWeight(1, 2); got != hi {
		t.Fatalf("frozen value %v should clip to bound %v", got, hi)
	}
	a.PulseAll(50, false)
	if got := a.DeviceWeight(1, 2); got != hi {
		t.Fatalf("frozen device moved to %v", got)
	}
}
