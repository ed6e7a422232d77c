package mann

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// ntmTestLoss computes a full-sequence BCE loss against fixed targets and,
// when wantGrads, the analytic gradients — the harness for the numeric
// gradient checks.
func ntmTestLoss(m *TrainableNTM, xs, targets []tensor.Vector, wantGrads bool) (float64, *nn.LSTMGrads) {
	ys, steps := m.ForwardSeq(xs)
	var loss float64
	dyRaw := make([]tensor.Vector, len(xs))
	denom := float64(m.Out * len(xs))
	for t := range xs {
		loss += nn.BCE(ys[t], targets[t]) / float64(len(xs))
		d := make(tensor.Vector, m.Out)
		for j := range d {
			d[j] = (ys[t][j] - targets[t][j]) / denom
		}
		dyRaw[t] = d
	}
	if !wantGrads {
		return loss, nil
	}
	m.ZeroGrads()
	return loss, m.BackwardSeq(steps, dyRaw)
}

// The decisive correctness test: every parameter group's analytic BPTT
// gradient must match numerical differentiation through the entire machine
// (controller → heads → addressing → memory evolution → reads → output).
func TestNTMBPTTGradientCheck(t *testing.T) {
	rng := rngutil.New(11)
	m := NewTrainableNTM(4, 3, 5, 3, 6, rng)
	dr := rng.Child("data")
	T := 4
	xs := make([]tensor.Vector, T)
	targets := make([]tensor.Vector, T)
	for t2 := 0; t2 < T; t2++ {
		xs[t2] = make(tensor.Vector, 5)
		targets[t2] = make(tensor.Vector, 3)
		for j := range xs[t2] {
			xs[t2][j] = dr.Uniform(0, 1)
		}
		for j := range targets[t2] {
			if dr.Bernoulli(0.5) {
				targets[t2][j] = 1
			}
		}
	}

	_, g := ntmTestLoss(m, xs, targets, true)

	check := func(name string, p *float64, analytic float64) {
		t.Helper()
		const h = 1e-6
		orig := *p
		*p = orig + h
		lp, _ := ntmTestLoss(m, xs, targets, false)
		*p = orig - h
		lm, _ := ntmTestLoss(m, xs, targets, false)
		*p = orig
		numeric := (lp - lm) / (2 * h)
		tol := 1e-4 * (1 + math.Abs(numeric))
		if math.Abs(numeric-analytic) > tol {
			t.Errorf("%s: numeric %v vs analytic %v", name, numeric, analytic)
		}
	}

	check("rKey.W[0]", &m.rKey.W.Data[0], m.rKey.DW.Data[0])
	check("rKey.B[1]", &m.rKey.B[1], m.rKey.DB[1])
	check("wKey.W[4]", &m.wKey.W.Data[4], m.wKey.DW.Data[4])
	check("rBeta.W[2]", &m.rBeta.W.Data[2], m.rBeta.DW.Data[2])
	check("wBeta.W[0]", &m.wBeta.W.Data[0], m.wBeta.DW.Data[0])
	check("rGate.W[3]", &m.rGate.W.Data[3], m.rGate.DW.Data[3])
	check("wGate.W[1]", &m.wGate.W.Data[1], m.wGate.DW.Data[1])
	check("rShift.W[5]", &m.rShift.W.Data[5], m.rShift.DW.Data[5])
	check("wShift.W[2]", &m.wShift.W.Data[2], m.wShift.DW.Data[2])
	check("erase.W[7]", &m.erase.W.Data[7], m.erase.DW.Data[7])
	check("add.W[6]", &m.add.W.Data[6], m.add.DW.Data[6])
	check("out.W[10]", &m.out.W.Data[10], m.out.DW.Data[10])
	check("out.B[0]", &m.out.B[0], m.out.DB[0])
	check("Ctrl.Wx[8]", &m.Ctrl.Wx.Data[8], g.DWx.Data[8])
	check("Ctrl.Wh[3]", &m.Ctrl.Wh.Data[3], g.DWh.Data[3])
	check("Ctrl.B[5]", &m.Ctrl.B[5], g.DB[5])
}

func TestNTMForwardShapes(t *testing.T) {
	rng := rngutil.New(1)
	m := NewTrainableNTM(8, 4, 6, 4, 10, rng)
	xs := make([]tensor.Vector, 5)
	for i := range xs {
		xs[i] = tensor.NewVector(6)
	}
	ys, steps := m.ForwardSeq(xs)
	if len(ys) != 5 || len(steps) != 5 {
		t.Fatal("sequence lengths wrong")
	}
	for _, y := range ys {
		if len(y) != 4 {
			t.Fatal("output width wrong")
		}
		for _, v := range y {
			if v < 0 || v > 1 {
				t.Fatalf("sigmoid output %v out of range", v)
			}
		}
	}
	// Attention weights stay distributions through the pipeline.
	for _, s := range steps {
		for _, w := range []tensor.Vector{s.read.w, s.write.w} {
			if math.Abs(w.Sum()-1) > 1e-6 {
				t.Fatalf("attention sums to %v", w.Sum())
			}
			for _, v := range w {
				if v < -1e-9 {
					t.Fatalf("negative attention %v", v)
				}
			}
		}
	}
}

func TestNTMCopyTaskLearns(t *testing.T) {
	rng := rngutil.New(33)
	const bits = 4
	m := NewTrainableNTM(12, 8, bits+2, bits, 24, rng)
	dr := rng.Child("payloads")

	sample := func() []tensor.Vector {
		n := 1 + dr.Intn(3)
		return dataset.CopyTask(n, bits, dr)
	}
	var first, last float64
	const train = 600
	for i := 0; i < train; i++ {
		loss := m.CopyTaskLoss(sample(), 1.0, 10)
		if i < 25 {
			first += loss
		}
		if i >= train-25 {
			last += loss
		}
	}
	first /= 25
	last /= 25
	if last > 0.7*first {
		t.Fatalf("NTM copy loss did not improve: first %v, last %v", first, last)
	}
}

func TestNTMCopyLossZeroLRDoesNotTrain(t *testing.T) {
	rng := rngutil.New(7)
	m := NewTrainableNTM(8, 4, 5, 3, 8, rng)
	payload := dataset.CopyTask(2, 3, rng.Child("p"))
	before := m.rKey.W.Clone()
	m.CopyTaskLoss(payload, 0, 0)
	for i := range before.Data {
		if before.Data[i] != m.rKey.W.Data[i] {
			t.Fatal("lr=0 must not change parameters")
		}
	}
}

func TestCosGradNumeric(t *testing.T) {
	rng := rngutil.New(1)
	a := make(tensor.Vector, 5)
	b := make(tensor.Vector, 5)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	g := cosGrad(a, b)
	const h = 1e-6
	for i := range a {
		ap := a.Clone()
		ap[i] += h
		am := a.Clone()
		am[i] -= h
		num := (tensor.CosineSimilarity(ap, b) - tensor.CosineSimilarity(am, b)) / (2 * h)
		if math.Abs(num-g[i]) > 1e-5 {
			t.Fatalf("cosGrad[%d]: numeric %v vs analytic %v", i, num, g[i])
		}
	}
}
