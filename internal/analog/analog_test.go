package analog

import (
	"math"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// tinyExperiment is a fast configuration for unit tests (<1s per run).
func tinyExperiment() ExperimentConfig {
	return ExperimentConfig{
		Hidden:    []int{12},
		Epochs:    8,
		LR:        0.05,
		Seed:      99,
		Data:      dataset.DigitsConfig{Classes: 6, Dim: 16, PerClass: 60, Noise: 0.5, Separation: 1},
		TrainFrac: 0.8,
	}
}

// asymmetricModel is a noiseless but strongly asymmetric soft-bounds device,
// the §II-B.5 stress case.
func asymmetricModel() *crossbar.SoftBoundsModel {
	return &crossbar.SoftBoundsModel{P: crossbar.SoftBoundsParams{
		SlopeUp:   0.002,
		SlopeDown: 0.012,
		WMin:      -1, WMax: 1,
	}}
}

func TestDigitalBaselineLearns(t *testing.T) {
	res := RunDigitsDigital(tinyExperiment())
	if res.TestAccuracy < 0.8 {
		t.Fatalf("digital baseline accuracy %v; experiment config broken", res.TestAccuracy)
	}
}

func TestIdealAnalogMatchesDigital(t *testing.T) {
	cfg := tinyExperiment()
	digital := RunDigitsDigital(cfg)
	opts := DefaultOptions(crossbar.Ideal(), PlainSGD)
	analog, _ := RunDigitsAnalog(opts, cfg)
	if analog.TestAccuracy < digital.TestAccuracy-0.08 {
		t.Fatalf("ideal-device analog SGD %v far below digital %v", analog.TestAccuracy, digital.TestAccuracy)
	}
}

func TestAsymmetryDegradesPlainSGD(t *testing.T) {
	cfg := tinyExperiment()
	ideal, _ := RunDigitsAnalog(DefaultOptions(crossbar.Ideal(), PlainSGD), cfg)
	asym, _ := RunDigitsAnalog(DefaultOptions(asymmetricModel(), PlainSGD), cfg)
	if asym.TestAccuracy >= ideal.TestAccuracy-0.03 {
		t.Fatalf("expected degradation: ideal %v vs asymmetric %v", ideal.TestAccuracy, asym.TestAccuracy)
	}
}

func TestTikiTakaRecoversAsymmetricDevice(t *testing.T) {
	cfg := tinyExperiment()
	plain, _ := RunDigitsAnalog(DefaultOptions(asymmetricModel(), PlainSGD), cfg)
	tt, _ := RunDigitsAnalog(DefaultOptions(asymmetricModel(), TikiTaka), cfg)
	if tt.TestAccuracy <= plain.TestAccuracy {
		t.Fatalf("Tiki-Taka %v should beat plain SGD %v on asymmetric devices", tt.TestAccuracy, plain.TestAccuracy)
	}
	ideal, _ := RunDigitsAnalog(DefaultOptions(crossbar.Ideal(), PlainSGD), cfg)
	if tt.TestAccuracy < ideal.TestAccuracy-0.1 {
		t.Fatalf("Tiki-Taka %v should approach ideal-device accuracy %v", tt.TestAccuracy, ideal.TestAccuracy)
	}
}

func TestZeroShiftHelpsAsymmetricDevice(t *testing.T) {
	cfg := tinyExperiment()
	plain, _ := RunDigitsAnalog(DefaultOptions(asymmetricModel(), PlainSGD), cfg)
	zs, _ := RunDigitsAnalog(DefaultOptions(asymmetricModel(), ZeroShift), cfg)
	if zs.TestAccuracy < plain.TestAccuracy-0.02 {
		t.Fatalf("zero-shift %v should not be worse than plain %v", zs.TestAccuracy, plain.TestAccuracy)
	}
}

func TestMixedPrecisionOnNoisyDevice(t *testing.T) {
	cfg := tinyExperiment()
	digital := RunDigitsDigital(cfg)
	mp, _ := RunDigitsAnalog(DefaultOptions(crossbar.RRAM(), MixedPrecision), cfg)
	if mp.TestAccuracy < digital.TestAccuracy-0.1 {
		t.Fatalf("mixed precision %v should approach digital %v even on RRAM", mp.TestAccuracy, digital.TestAccuracy)
	}
}

func TestZeroShiftedMatReferencing(t *testing.T) {
	opts := DefaultOptions(asymmetricModel(), ZeroShift)
	opts.InitScale = 0 // no random init: effective weights must start ≈ 0
	sess := NewSession(opts, rngutil.New(5))
	z := sess.Factory()(6, 6).(*zeroShiftedMat)
	eff := zeroShiftedWeights(z)
	if eff.MaxAbs() > 0.05 {
		t.Fatalf("zero-shifted effective weights should start near 0, max %v", eff.MaxAbs())
	}
	// The raw array, by contrast, sits at the (non-zero) symmetry point.
	raw := z.a.Weights()
	want := asymmetricModel().SymmetryPoint()
	if math.Abs(raw.At(0, 0)-want) > 0.1 {
		t.Fatalf("raw weight %v should sit near symmetry point %v", raw.At(0, 0), want)
	}
}

func TestTikiTakaTransferMovesC(t *testing.T) {
	opts := DefaultOptions(crossbar.Ideal(), TikiTaka)
	opts.TTTransferEvery = 1
	sess := NewSession(opts, rngutil.New(7))
	tt := sess.Factory()(4, 4).(*tikiTakaMat)
	cBefore := zeroShiftedWeights(tt.c)
	u := tensor.Vector{1, 1, 1, 1}
	for k := 0; k < 8; k++ {
		tt.Update(0.05, u, u)
	}
	cAfter := zeroShiftedWeights(tt.c)
	moved := 0.0
	for i := range cAfter.Data {
		moved += math.Abs(cAfter.Data[i] - cBefore.Data[i])
	}
	if moved == 0 {
		t.Fatal("transfers should move the slow array C")
	}
}

func TestSessionRegistersArrays(t *testing.T) {
	sess := NewSession(DefaultOptions(crossbar.PCM(), PlainSGD), rngutil.New(9))
	f := sess.Factory()
	f(4, 4)
	f(3, 5)
	if len(sess.Arrays()) != 2 {
		t.Fatalf("expected 2 arrays, got %d", len(sess.Arrays()))
	}
	sess.AdvanceTime(1000)  // must not panic
	sess.MaintainPCM(0.001) // force reset path
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		PlainSGD: "plain-sgd", ZeroShift: "zero-shift",
		TikiTaka: "tiki-taka", MixedPrecision: "mixed-precision",
	} {
		if m.String() != want {
			t.Errorf("Mode.String() = %q, want %q", m.String(), want)
		}
	}
}

func TestDropConnectMasksDuringTraining(t *testing.T) {
	rng := rngutil.New(11)
	inner := nn.NewDenseMat(4, 4)
	inner.M.Fill(1)
	dc := NewDropConnect(inner, 0.5, rng)
	x := tensor.Vector{1, 1, 1, 1}
	// Training mode: outputs vary as masks are resampled.
	y1 := dc.Forward(x)
	varies := false
	for trial := 0; trial < 20 && !varies; trial++ {
		y2 := dc.Forward(x)
		for i := range y1 {
			if y1[i] != y2[i] {
				varies = true
			}
		}
	}
	if !varies {
		t.Fatal("training-mode forward should vary with resampled masks")
	}
	// Inference mode: exact.
	dc.Train = false
	y := dc.Forward(x)
	for i := range y {
		if y[i] != 4 {
			t.Fatalf("inference forward = %v, want 4s", y)
		}
	}
}

func TestDropConnectUpdateSkipsDropped(t *testing.T) {
	rng := rngutil.New(13)
	inner := nn.NewDenseMat(2, 2)
	dc := NewDropConnect(inner, 1, rng) // drop everything
	dc.Forward(tensor.Vector{1, 1})     // sample all-dropped mask
	dc.Update(1, tensor.Vector{1, 1}, tensor.Vector{1, 1})
	if inner.M.MaxAbs() != 0 {
		t.Fatal("fully dropped update must not change weights")
	}
}

func TestHardwareAwareTrainingTolerant(t *testing.T) {
	cfg := tinyExperiment()
	cfg.Epochs = 8

	// Conventional digital training, then program onto a faulty array.
	conv := RunDigitsDigital(cfg)
	_ = conv

	rng := rngutil.New(cfg.Seed)
	ds := dataset.Digits(cfg.Data, rng.Child("data"))
	train, test := ds.Split(cfg.TrainFrac)
	sizes := []int{cfg.Data.Dim, 12, cfg.Data.Classes}

	trainMLP := func(factory nn.MatFactory) *nn.MLP {
		m := nn.NewMLP(sizes, nn.TanhAct, nn.SoftmaxAct, factory)
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for i := range train.X {
				m.TrainStep(train.X[i], train.Y[i], cfg.LR)
			}
		}
		return m
	}

	plain := trainMLP(nn.DenseFactory(rngutil.New(42)))
	aware := trainMLP(DropConnectFactory(0.08, rngutil.New(42)))
	SetTrainMode(aware, false)

	faulty := crossbar.DefaultConfig()
	faulty.StuckFraction = 0.08

	plainAnalog, _ := ProgramToArrays(plain, crossbar.Ideal(), faulty, rngutil.New(7))
	awareAnalog, _ := ProgramToArrays(aware, crossbar.Ideal(), faulty, rngutil.New(7))

	accPlain := plainAnalog.Accuracy(test.X, test.Y)
	accAware := awareAnalog.Accuracy(test.X, test.Y)
	if accAware < accPlain-0.05 {
		t.Fatalf("hardware-aware training %v should not trail conventional %v on faulty arrays", accAware, accPlain)
	}
}

func TestProgramToArraysFaithful(t *testing.T) {
	cfg := tinyExperiment()
	rng := rngutil.New(cfg.Seed)
	ds := dataset.Digits(cfg.Data, rng.Child("data"))
	train, test := ds.Split(cfg.TrainFrac)
	m := nn.NewMLP([]int{cfg.Data.Dim, 12, cfg.Data.Classes}, nn.TanhAct, nn.SoftmaxAct, nn.DenseFactory(rngutil.New(3)))
	for epoch := 0; epoch < 6; epoch++ {
		for i := range train.X {
			m.TrainStep(train.X[i], train.Y[i], 0.05)
		}
	}
	digitalAcc := m.Accuracy(test.X, test.Y)
	analogNet, arrays := ProgramToArrays(m, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(5))
	if len(arrays) != 2 {
		t.Fatalf("expected 2 arrays, got %d", len(arrays))
	}
	analogAcc := analogNet.Accuracy(test.X, test.Y)
	if analogAcc < digitalAcc-0.05 {
		t.Fatalf("programmed inference %v should match digital %v on ideal devices", analogAcc, digitalAcc)
	}
}

func TestPCMTrainingEndToEnd(t *testing.T) {
	cfg := tinyExperiment()
	sess := NewSession(DefaultOptions(crossbar.PCMProjected(), MixedPrecision), rngutil.New(cfg.Seed).Child("session"))
	res := RunDigits(sess.Factory(), cfg, func(epoch int) {
		sess.AdvanceTime(60) // a minute of drift per epoch
		sess.MaintainPCM(0.9)
	})
	if res.TestAccuracy < 0.8 {
		t.Fatalf("PCM mixed-precision training accuracy %v too low", res.TestAccuracy)
	}
}

// zeroShiftedWeights returns the logical weight matrix A − R of a
// zero-shifted layer.
func zeroShiftedWeights(z *zeroShiftedMat) *tensor.Matrix {
	w := z.a.Weights()
	for i := range w.Data {
		w.Data[i] -= z.ref.Data[i]
	}
	return w
}
