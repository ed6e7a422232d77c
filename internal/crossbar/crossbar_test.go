package crossbar

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// The Array must satisfy the network-facing Mat contract.
var _ nn.Mat = (*Array)(nil)

func idealArray(rows, cols int, seed uint64) *Array {
	return NewArray(rows, cols, Ideal(), DefaultConfig(), rngutil.New(seed))
}

func TestIdealForwardMatchesDigital(t *testing.T) {
	rng := rngutil.New(1)
	a := idealArray(4, 6, 1)
	// Program a known matrix.
	target := tensor.NewMatrix(4, 6)
	for i := range target.Data {
		target.Data[i] = rng.Uniform(-0.5, 0.5)
	}
	a.Program(target, 2000)
	x := make(tensor.Vector, 6)
	for j := range x {
		x[j] = rng.Uniform(-1, 1)
	}
	got := a.Forward(x)
	want := a.Weights().MatVec(x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("ideal forward must equal mirror MVM: %v vs %v", got, want)
		}
	}
	// And the programmed weights should be close to the target (within a
	// couple of steps of write-verify resolution).
	for i := range target.Data {
		if math.Abs(a.Weights().Data[i]-target.Data[i]) > 3*Ideal().MeanStep() {
			t.Fatalf("programming error too large at %d: %v vs %v", i, a.Weights().Data[i], target.Data[i])
		}
	}
}

func TestBackwardIsTranspose(t *testing.T) {
	rng := rngutil.New(2)
	a := idealArray(5, 3, 2)
	target := tensor.NewMatrix(5, 3)
	for i := range target.Data {
		target.Data[i] = rng.Uniform(-0.5, 0.5)
	}
	a.Program(target, 2000)
	d := tensor.Vector{0.3, -0.8, 0.1, 0.5, -0.2}
	got := a.Backward(d)
	want := a.Weights().MatVecT(d)
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-9 {
			t.Fatalf("backward must be transposed MVM")
		}
	}
}

func TestForwardShapePanics(t *testing.T) {
	a := idealArray(2, 3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Forward(tensor.Vector{1, 2})
}

// Property F1: the stochastic update is unbiased — E[ΔW] = scale·u⊗v.
func TestStochasticUpdateUnbiased(t *testing.T) {
	u := tensor.Vector{0.8, -0.5, 0.3}
	v := tensor.Vector{0.6, -0.9}
	scale := 0.01
	const trials = 400
	sum := tensor.NewMatrix(3, 2)
	for trial := 0; trial < trials; trial++ {
		a := NewArray(3, 2, Ideal(), DefaultConfig(), rngutil.New(uint64(trial+1)))
		before := a.Weights()
		a.Update(scale, u, v)
		after := a.Weights()
		for i := range sum.Data {
			sum.Data[i] += after.Data[i] - before.Data[i]
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			got := sum.At(i, j) / trials
			want := scale * u[i] * v[j]
			// Binomial noise scales like sqrt; allow 35 % relative + floor.
			tol := 0.35*math.Abs(want) + 5e-4
			if math.Abs(got-want) > tol {
				t.Errorf("E[dW(%d,%d)] = %v, want %v (tol %v)", i, j, got, want, tol)
			}
		}
	}
}

// Property: the expected-pulse update mode is also unbiased and close to
// the target in a single shot for updates large relative to the step.
func TestExpectedUpdateAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Update = UpdateExpected
	a := NewArray(2, 2, Ideal(), cfg, rngutil.New(9))
	u := tensor.Vector{1, -1}
	v := tensor.Vector{1, 0.5}
	before := a.Weights()
	a.Update(0.05, u, v)
	after := a.Weights()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			got := after.At(i, j) - before.At(i, j)
			want := 0.05 * u[i] * v[j]
			if math.Abs(got-want) > 2*Ideal().MeanStep() {
				t.Errorf("dW(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// Property: device weights never escape the model bounds regardless of the
// pulse sequence applied.
func TestWeightBoundsInvariant(t *testing.T) {
	models := []Model{Ideal(), RRAM(), PCM(), FeFET(), ECRAM()}
	f := func(seed int64, nUp, nDown uint8) bool {
		for _, m := range models {
			rng := rngutil.New(uint64(seed))
			d := m.newCells(1, rng)
			pr := rng.Child("p")
			d.pulse(0, int(nUp), true, pr)
			d.pulse(0, int(nDown), false, pr)
			lo, hi := m.WeightBounds()
			w := d.w[0]
			if w < lo-1e-9 || w > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStuckDevicesFrozen(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StuckFraction = 1 // everything stuck
	a := NewArray(3, 3, Ideal(), cfg, rngutil.New(5))
	if a.StuckCount() != 9 {
		t.Fatalf("StuckCount = %d", a.StuckCount())
	}
	before := a.Weights()
	a.Update(0.5, tensor.Vector{1, 1, 1}, tensor.Vector{1, 1, 1})
	a.PulseAll(10, true)
	after := a.Weights()
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("stuck device moved")
		}
	}
}

func TestOpCountsTrackArrayOps(t *testing.T) {
	a := idealArray(8, 8, 17)
	a.Forward(make(tensor.Vector, 8))
	a.Backward(make(tensor.Vector, 8))
	a.Update(0.01, make(tensor.Vector, 8), make(tensor.Vector, 8))
	if a.Counts.Forwards != 1 || a.Counts.Backwards != 1 || a.Counts.Updates != 1 {
		t.Fatalf("op counts wrong: %+v", a.Counts)
	}
	if a.Counts.DigitalMACs != 3*64 {
		t.Fatalf("digital MAC equivalent wrong: %d", a.Counts.DigitalMACs)
	}
}

// F2: the RRAM pulse response must show saturation (diminishing steps),
// asymmetry, and cycle-to-cycle stochasticity.
func TestRRAMPulseResponseShape(t *testing.T) {
	trace := PulseResponse(RRAM(), 3, 1000, 1000, 42)
	if len(trace) != 6000 {
		t.Fatalf("trace length %d", len(trace))
	}
	// Saturation: the first 100 potentiation pulses move the weight much
	// more than the last 100 of the same ramp.
	firstMove := trace[99] - trace[0]
	lastMove := trace[999] - trace[899]
	if lastMove > firstMove/2 {
		t.Errorf("no saturation: first-100 move %v, last-100 move %v", firstMove, lastMove)
	}
	// Potentiation must raise conductance and depression lower it.
	if trace[999] <= trace[0] {
		t.Error("potentiation ramp did not increase weight")
	}
	if trace[1999] >= trace[999] {
		t.Error("depression ramp did not decrease weight")
	}
	// Cycle-to-cycle stochasticity: cycles should not repeat exactly.
	if trace[999] == trace[2999] {
		t.Error("cycles identical; expected stochastic variation")
	}
}

func TestIdealPulseResponseLinear(t *testing.T) {
	trace := PulseResponse(Ideal(), 1, 100, 0, 1)
	dw := Ideal().MeanStep()
	for i := 1; i < len(trace); i++ {
		if math.Abs((trace[i]-trace[i-1])-dw) > 1e-12 {
			t.Fatalf("ideal device step not constant at pulse %d", i)
		}
	}
}

func TestSymmetryPointMatchesAnalytic(t *testing.T) {
	m := RRAM()
	m.P.CycleNoise = 0 // deterministic for the analytic check
	m.P.DeviceVar = 0
	got := FindSymmetryPoint(m, 4000, 3)
	want := m.SymmetryPoint()
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("symmetry point %v, analytic %v", got, want)
	}
}

func TestMeasureAsymmetry(t *testing.T) {
	if a := MeasureAsymmetry(Ideal(), 10, 1); math.Abs(a) > 1e-9 {
		t.Errorf("ideal device asymmetry = %v, want 0", a)
	}
	m := &LinearStepModel{P: LinearStepParams{DwMin: 0.01, Asymmetry: 0.3, WMin: -1, WMax: 1}}
	if a := MeasureAsymmetry(m, 10, 1); math.Abs(a-0.3) > 0.02 {
		t.Errorf("asymmetric device measured %v, want 0.3", a)
	}
}

func TestPCMUnidirectionalPair(t *testing.T) {
	rng := rngutil.New(19)
	d := PCM().newCells(1, rng)
	pr := rng.Child("p")
	w0 := d.w[0]
	d.pulse(0, 50, true, pr)
	if d.w[0] <= w0 {
		t.Fatal("up pulses must raise weight")
	}
	gpBefore := d.gp[0]
	d.pulse(0, 50, false, pr)
	// Depression must not reduce G⁺ (unidirectional): it raises G⁻ instead.
	if d.gp[0] != gpBefore {
		t.Fatal("depression must not touch the positive leg")
	}
	if d.gn[0] <= 0.25 {
		t.Fatal("depression must raise the negative leg")
	}
}

func TestPCMResetPreservesWeight(t *testing.T) {
	rng := rngutil.New(23)
	d := PCM().newCells(1, rng)
	pr := rng.Child("p")
	d.pulse(0, 100, true, pr)
	d.pulse(0, 60, false, pr)
	w := d.w[0]
	sat := d.maxSaturationPCM()
	d.resetPCM([]bool{false})
	if math.Abs(d.w[0]-w) > 1e-12 {
		t.Fatalf("reset changed weight: %v -> %v", w, d.w[0])
	}
	if d.maxSaturationPCM() >= sat {
		t.Fatal("reset should restore headroom")
	}
}

func TestPCMSaturationBlocksUpdatesWithoutReset(t *testing.T) {
	rng := rngutil.New(29)
	d := PCM().newCells(1, rng)
	pr := rng.Child("p")
	// Alternate heavily: both legs saturate, weight stops responding.
	for i := 0; i < 3000; i++ {
		d.pulse(0, 1, true, pr)
		d.pulse(0, 1, false, pr)
	}
	w := d.w[0]
	d.pulse(0, 20, true, pr)
	moved := math.Abs(d.w[0] - w)
	if moved > 0.01 {
		t.Fatalf("saturated pair still moves by %v; expected blocked updates", moved)
	}
	if d.maxSaturationPCM() < 0.9 {
		t.Fatalf("expected near-saturated legs, got %v", d.maxSaturationPCM())
	}
}

func TestPCMDriftAndProjection(t *testing.T) {
	rng := rngutil.New(31)
	plain := PCM().newCells(1, rng.Child("a"))
	proj := PCMProjected().newCells(1, rng.Child("b"))
	pr := rng.Child("p")
	plain.pulse(0, 200, true, pr)
	proj.pulse(0, 200, true, pr)
	wPlain, wProj := plain.w[0], proj.w[0]
	plain.drift(1e6, []bool{false})
	proj.drift(1e6, []bool{false})
	dropPlain := (wPlain - plain.w[0]) / wPlain
	dropProj := (wProj - proj.w[0]) / wProj
	if dropPlain <= 0 {
		t.Fatal("PCM should drift down")
	}
	if dropProj >= dropPlain/2 {
		t.Fatalf("projection liner should suppress drift: plain %v proj %v", dropPlain, dropProj)
	}
}

// TestPCMSquareMatchesPow pins the exactness the PCM step law rests on:
// headroom·headroom is bitwise math.Pow(headroom, 2) for every headroom
// 1 − g/GMax the law can see (0, or at least 2⁻⁵³, whose square is never
// subnormal), and the mean step DG·0.25 is DG·Pow(0.5, 2).
func TestPCMSquareMatchesPow(t *testing.T) {
	same := func(h float64) {
		t.Helper()
		if sq, pw := h*h, math.Pow(h, 2); math.Float64bits(sq) != math.Float64bits(pw) {
			t.Fatalf("h=%v (%#x): h*h = %v, Pow(h, 2) = %v", h, math.Float64bits(h), sq, pw)
		}
	}
	lo := math.Ldexp(1, -53) // smallest nonzero 1 − x for a float64 x < 1
	hi := math.Nextafter(1, 0)
	for _, h := range []float64{0, lo, hi, 1} {
		same(h)
	}
	up, down := lo, hi
	for k := 0; k < 1_000_000; k++ {
		up, down = math.Nextafter(up, 1), math.Nextafter(down, 0)
		same(up)
		same(down)
	}
	rng := rngutil.New(41)
	for k := 0; k < 1_000_000; k++ {
		same(1 - rng.Float64())
	}
	for _, dg := range []float64{PCM().P.DG, 1, 3e-7, rng.Float64()} {
		if got, want := (&PCMModel{P: PCMParams{DG: dg}}).MeanStep(), dg*math.Pow(0.5, 2); got != want {
			t.Fatalf("MeanStep(DG=%v) = %v, want DG·Pow(0.5, 2) = %v", dg, got, want)
		}
	}
}

func TestFeFETEnduranceFreeze(t *testing.T) {
	m := FeFET()
	m.P.Endurance = 100
	rng := rngutil.New(37)
	d := m.newCells(1, rng)
	pr := rng.Child("p")
	d.pulse(0, 100, true, pr)
	if d.wear[0] < m.P.Endurance {
		t.Fatal("device should be worn out after endurance pulses")
	}
	w := d.w[0]
	d.pulse(0, 50, true, pr)
	if d.w[0] != w {
		t.Fatal("worn-out device must not move")
	}
}

func TestECRAMSymmetryAndRelaxation(t *testing.T) {
	// ECRAM should be far more symmetric than RRAM.
	ecramAsym := math.Abs(MeasureAsymmetry(ECRAM(), 50, 1))
	rramAsym := math.Abs(MeasureAsymmetry(RRAM(), 50, 1))
	if ecramAsym >= rramAsym {
		t.Fatalf("ECRAM asym %v should beat RRAM %v", ecramAsym, rramAsym)
	}
	rng := rngutil.New(41)
	d := ECRAM().newCells(1, rng)
	pr := rng.Child("p")
	d.pulse(0, 300, true, pr)
	w := d.w[0]
	d.drift(7200, []bool{false}) // two relaxation time constants
	if math.Abs(d.w[0]) >= math.Abs(w) {
		t.Fatal("ECRAM open-circuit relaxation should decay toward rest")
	}
}

func TestArrayAdvanceTimeAndReset(t *testing.T) {
	a := NewArray(2, 2, PCM(), DefaultConfig(), rngutil.New(43))
	a.PulseAll(100, true)
	w := a.Weights()
	a.AdvanceTime(1e6)
	w2 := a.Weights()
	if w2.At(0, 0) >= w.At(0, 0) {
		t.Fatal("array drift should lower PCM weights")
	}
	if a.MaxSaturation() <= 0 {
		t.Fatal("saturation should be positive after pulses")
	}
	a.ResetAll()
	if a.MaxSaturation() > 0.5 {
		t.Fatal("reset should restore headroom")
	}
}

func TestZeroUpdateNoop(t *testing.T) {
	a := idealArray(2, 2, 47)
	before := a.Weights()
	a.Update(0, tensor.Vector{1, 1}, tensor.Vector{1, 1})
	after := a.Weights()
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("zero-scale update must be a no-op")
		}
	}
	if a.Counts.Updates != 0 {
		t.Fatal("zero-scale update should not count")
	}
}

func TestModelNames(t *testing.T) {
	for _, m := range []Model{Ideal(), RRAM(), PCM(), PCMProjected(), FeFET(), ECRAM()} {
		if m.Name() == "" {
			t.Error("model must have a name")
		}
		if m.MeanStep() <= 0 {
			t.Errorf("%s: MeanStep must be positive", m.Name())
		}
		lo, hi := m.WeightBounds()
		if lo >= hi {
			t.Errorf("%s: bad bounds", m.Name())
		}
	}
}

// C7: inference efficiency rises with device resistance and saturates in
// the paper's projected band at 100 MOhm.
func TestInferenceEfficiencyBand(t *testing.T) {
	m := DefaultInferenceEnergy()
	low := m.TOPSPerWatt(256, 256, 1e4)
	high := m.TOPSPerWatt(256, 256, 1e8)
	if high <= low {
		t.Fatal("efficiency must rise with device resistance")
	}
	if high < 172 || high > 260 {
		t.Fatalf("efficiency at 100 MOhm = %v TOP/s/W, outside the 172-250 band", high)
	}
	if low > 20 {
		t.Fatalf("low-resistance efficiency %v should be array-power limited", low)
	}
	// Monotone in resistance.
	prev := 0.0
	for _, r := range []float64{1e4, 1e5, 1e6, 1e7, 1e8} {
		e := m.TOPSPerWatt(256, 256, r)
		if e <= prev {
			t.Fatalf("efficiency not monotone at R=%v", r)
		}
		prev = e
	}
}

func TestMVMEnergyComponents(t *testing.T) {
	m := DefaultInferenceEnergy()
	// At very low resistance the array term dominates: energy should scale
	// roughly inversely with R.
	e1 := m.MVMEnergy(256, 256, 1e4)
	e2 := m.MVMEnergy(256, 256, 2e4)
	if e2 >= e1 {
		t.Fatal("array energy must fall with resistance")
	}
	if ratio := e1 / e2; ratio < 1.5 {
		t.Fatalf("low-R regime should be array-dominated, ratio %v", ratio)
	}
}

func TestStuckAtRandomValue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StuckFraction = 1
	cfg.StuckValueStd = 0.3
	a := NewArray(8, 8, Ideal(), cfg, rngutil.New(3))
	// Corrupt devices freeze at nonzero random values...
	if a.Weights().MaxAbs() == 0 {
		t.Fatal("corrupt devices should freeze at random values")
	}
	lo, hi := Ideal().WeightBounds()
	for _, w := range a.Weights().Data {
		if w < lo || w > hi {
			t.Fatalf("stuck value %v outside device bounds", w)
		}
	}
	// ...and stay frozen under pulsing and programming.
	before := a.Weights()
	a.PulseAll(100, true)
	tgt := tensor.NewMatrix(8, 8)
	tensor.Vector(tgt.Data).Fill(0.9)
	a.Program(tgt, 1000)
	after := a.Weights()
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("corrupt device changed state")
		}
	}
}
