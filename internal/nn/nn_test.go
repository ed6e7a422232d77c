package nn

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func TestDenseMatImplementsCycles(t *testing.T) {
	d := NewDenseMat(2, 3)
	copy(d.M.Data, []float64{1, 2, 3, 4, 5, 6})
	if d.Rows() != 2 || d.Cols() != 3 {
		t.Fatal("shape wrong")
	}
	y := d.Forward(tensor.Vector{1, 0, 1})
	if y[0] != 4 || y[1] != 10 {
		t.Fatalf("Forward = %v", y)
	}
	b := d.Backward(tensor.Vector{1, 1})
	if b[0] != 5 || b[1] != 7 || b[2] != 9 {
		t.Fatalf("Backward = %v", b)
	}
	d.Update(2, tensor.Vector{1, 0}, tensor.Vector{0, 1, 0})
	if d.M.At(0, 1) != 4 {
		t.Fatalf("Update: got %v", d.M.At(0, 1))
	}
}

func TestXavierInitRange(t *testing.T) {
	m := tensor.NewMatrix(10, 20)
	InitXavier(m, rngutil.New(1))
	limit := math.Sqrt(6.0 / 30.0)
	nonzero := 0
	for _, w := range m.Data {
		if math.Abs(w) > limit {
			t.Fatalf("weight %v outside Xavier limit %v", w, limit)
		}
		if w != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatal("most weights should be nonzero")
	}
}

func TestActivationString(t *testing.T) {
	for a, want := range map[Activation]string{
		Identity: "identity", TanhAct: "tanh", SigmoidAct: "sigmoid",
		ReLUAct: "relu", SoftmaxAct: "softmax",
	} {
		if a.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestDenseLayerBiasFolding(t *testing.T) {
	rng := rngutil.New(3)
	l := NewDenseLayer(2, 3, Identity, true, DenseFactory(rng))
	if l.W.Cols() != 3 { // 2 inputs + 1 bias column
		t.Fatalf("bias column missing: cols=%d", l.W.Cols())
	}
	// Zero input must still produce the bias column's contribution.
	dm := l.W.(*DenseMat)
	dm.M.Fill(0)
	dm.M.Set(0, 2, 0.7)
	y := l.Forward(tensor.Vector{0, 0})
	if y[0] != 0.7 {
		t.Fatalf("bias not applied: %v", y)
	}
}

// Gradient check: MLP backward must match numerical gradients of the loss
// with respect to the input.
func TestMLPGradientCheck(t *testing.T) {
	rng := rngutil.New(7)
	m := NewMLP([]int{4, 5, 3}, TanhAct, SoftmaxAct, DenseFactory(rng))
	x := tensor.Vector{0.3, -0.2, 0.8, 0.1}
	label := 1

	loss := func(xx tensor.Vector) float64 {
		return CrossEntropy(m.Forward(xx), label)
	}
	probs := m.Forward(x)
	dy := probs.Clone()
	dy[label] -= 1
	dx := m.Backward(dy, 0) // lr=0: compute input grads without updating

	const h = 1e-5
	for i := range x {
		xp := x.Clone()
		xp[i] += h
		xm := x.Clone()
		xm[i] -= h
		num := (loss(xp) - loss(xm)) / (2 * h)
		if math.Abs(num-dx[i]) > 1e-4 {
			t.Errorf("input grad %d: numeric %v vs backprop %v", i, num, dx[i])
		}
	}
}

// Gradient check on weights: perturb one weight, compare loss delta.
func TestMLPWeightGradientCheck(t *testing.T) {
	rng := rngutil.New(8)
	m := NewMLP([]int{3, 4, 2}, SigmoidAct, SoftmaxAct, DenseFactory(rng))
	x := tensor.Vector{0.5, -1, 0.2}
	label := 0

	// Analytic dL/dW for layer 0 weight (1,2) via a tiny lr step:
	// W -= lr*g  =>  g ≈ (W_before - W_after)/lr.
	dm := m.Layers[0].W.(*DenseMat)
	before := dm.M.At(1, 2)
	probs := m.Forward(x)
	dy := probs.Clone()
	dy[label] -= 1
	const lr = 1e-6
	m.Backward(dy, lr)
	analytic := (before - dm.M.At(1, 2)) / lr
	dm.M.Set(1, 2, before) // restore

	const h = 1e-5
	loss := func() float64 { return CrossEntropy(m.Forward(x), label) }
	dm.M.Set(1, 2, before+h)
	lp := loss()
	dm.M.Set(1, 2, before-h)
	lm := loss()
	dm.M.Set(1, 2, before)
	numeric := (lp - lm) / (2 * h)
	if math.Abs(numeric-analytic) > 1e-3 {
		t.Errorf("weight grad: numeric %v vs analytic %v", numeric, analytic)
	}
}

func TestMLPLearnsBlobs(t *testing.T) {
	rng := rngutil.New(11)
	m := NewMLP([]int{4, 8, 2}, TanhAct, SoftmaxAct, DenseFactory(rng))
	// Two well-separated Gaussian blobs.
	var xs []tensor.Vector
	var ys []int
	dr := rng.Child("data")
	for i := 0; i < 200; i++ {
		c := i % 2
		center := 1.5
		if c == 0 {
			center = -1.5
		}
		x := make(tensor.Vector, 4)
		for j := range x {
			x[j] = dr.Normal(center, 1)
		}
		xs = append(xs, x)
		ys = append(ys, c)
	}
	for epoch := 0; epoch < 10; epoch++ {
		for i := range xs {
			m.TrainStep(xs[i], ys[i], 0.05)
		}
	}
	if acc := m.Accuracy(xs, ys); acc < 0.95 {
		t.Fatalf("MLP failed to learn separable blobs: acc=%v", acc)
	}
}

func TestMLPTrainLossDecreases(t *testing.T) {
	rng := rngutil.New(13)
	m := NewMLP([]int{2, 6, 2}, ReLUAct, SoftmaxAct, DenseFactory(rng))
	x := tensor.Vector{1, -1}
	first := m.TrainStep(x, 0, 0.1)
	var last float64
	for i := 0; i < 30; i++ {
		last = m.TrainStep(x, 0, 0.1)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first=%v last=%v", first, last)
	}
}

// BPTT gradient check against numerical differentiation of a scalar loss.
func TestLSTMBPTTGradientCheck(t *testing.T) {
	rng := rngutil.New(19)
	l := NewLSTM(2, 3, rng)
	xs := []tensor.Vector{{0.5, -0.3}, {0.1, 0.9}, {-0.7, 0.2}}
	target := tensor.Vector{0.2, -0.1, 0.4}

	loss := func() float64 {
		hs, _ := forwardSeq(l, xs)
		return mse(hs[len(hs)-1], target)
	}

	hs, caches := forwardSeq(l, xs)
	dhs := make([]tensor.Vector, len(xs))
	for t2 := range dhs {
		dhs[t2] = tensor.NewVector(3)
	}
	dhs[len(xs)-1] = mseGrad(hs[len(hs)-1], target)
	g := l.NewLSTMGrads()
	backwardSeq(l, caches, dhs, g)

	const h = 1e-5
	// Check a few representative weights in each parameter block.
	checks := []struct {
		name string
		get  func() *float64
		grad float64
	}{
		{"Wx[0]", func() *float64 { return &l.Wx.Data[0] }, g.DWx.Data[0]},
		{"Wx[5]", func() *float64 { return &l.Wx.Data[5] }, g.DWx.Data[5]},
		{"Wh[1]", func() *float64 { return &l.Wh.Data[1] }, g.DWh.Data[1]},
		{"Wh[7]", func() *float64 { return &l.Wh.Data[7] }, g.DWh.Data[7]},
		{"B[2]", func() *float64 { return &l.B[2] }, g.DB[2]},
		{"B[10]", func() *float64 { return &l.B[10] }, g.DB[10]},
	}
	for _, c := range checks {
		p := c.get()
		orig := *p
		*p = orig + h
		lp := loss()
		*p = orig - h
		lm := loss()
		*p = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-c.grad) > 1e-4 {
			t.Errorf("%s: numeric %v vs BPTT %v", c.name, numeric, c.grad)
		}
	}
}

func TestLSTMLearnsToRememberFirstInput(t *testing.T) {
	// Task: output at the last step should equal the first input bit.
	rng := rngutil.New(23)
	l := NewLSTM(1, 8, rng)
	readout := NewDenseLayer(8, 1, SigmoidAct, true, DenseFactory(rng.Child("ro")))

	dr := rng.Child("data")
	seqLen := 4
	trainCase := func(lr float64) float64 {
		bit := 0.0
		if dr.Bernoulli(0.5) {
			bit = 1
		}
		xs := make([]tensor.Vector, seqLen)
		xs[0] = tensor.Vector{bit}
		for t2 := 1; t2 < seqLen; t2++ {
			xs[t2] = tensor.Vector{dr.Float64()*0.2 - 0.1} // distractors
		}
		hs, caches := forwardSeq(l, xs)
		pred := readout.Forward(hs[seqLen-1])
		loss := mse(pred, tensor.Vector{bit})
		if lr > 0 {
			dh := readout.Backward(mseGrad(pred, tensor.Vector{bit}), lr)
			dhs := make([]tensor.Vector, seqLen)
			for t2 := range dhs {
				dhs[t2] = tensor.NewVector(8)
			}
			dhs[seqLen-1] = dh
			g := l.NewLSTMGrads()
			backwardSeq(l, caches, dhs, g)
			l.ApplyGrads(g, lr, 5)
		}
		return loss
	}

	var early, late float64
	for i := 0; i < 60; i++ {
		early += trainCase(0.2)
	}
	for i := 0; i < 500; i++ {
		trainCase(0.2)
	}
	for i := 0; i < 60; i++ {
		late += trainCase(0)
	}
	if late >= early {
		t.Fatalf("LSTM did not learn: early loss %v, late loss %v", early/60, late/60)
	}
}

func TestLossFunctions(t *testing.T) {
	if got := CrossEntropy(tensor.Vector{0.5, 0.5}, 0); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("CE = %v, want ln2", got)
	}
	if got := CrossEntropy(tensor.Vector{0, 1}, 0); math.IsInf(got, 1) {
		t.Error("CE must be finite under clamping")
	}
	if got := mse(tensor.Vector{1, 2}, tensor.Vector{1, 4}); got != 2 {
		t.Errorf("mse = %v, want 2", got)
	}
	g := mseGrad(tensor.Vector{1, 2}, tensor.Vector{1, 4})
	if g[0] != 0 || g[1] != -2 {
		t.Errorf("mseGrad = %v", g)
	}
	if got := BCE(tensor.Vector{0.5}, tensor.Vector{1}); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("BCE = %v, want ln2", got)
	}
	if got := BCE(tensor.Vector{1}, tensor.Vector{1}); got > 1e-9 {
		t.Errorf("BCE perfect pred = %v, want ~0", got)
	}
}

// mse returns the mean squared error between prediction and target.
func mse(pred, target tensor.Vector) float64 {
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// mseGrad returns d(mse)/d(pred) = 2(pred-target)/n.
func mseGrad(pred, target tensor.Vector) tensor.Vector {
	g := make(tensor.Vector, len(pred))
	for i := range pred {
		g[i] = 2 * (pred[i] - target[i]) / float64(len(pred))
	}
	return g
}

// forwardSeq runs a whole sequence from the zero state and returns the
// hidden state and the cache of every step.
func forwardSeq(l *LSTM, xs []tensor.Vector) ([]tensor.Vector, []*StepCache) {
	h, c := tensor.NewVector(l.HiddenSize), tensor.NewVector(l.HiddenSize)
	hs := make([]tensor.Vector, len(xs))
	caches := make([]*StepCache, len(xs))
	for t, x := range xs {
		h, c, caches[t] = l.StepWithCache(x, h, c)
		hs[t] = h
	}
	return hs, caches
}

// backwardSeq runs full BPTT given dL/dh at every step, accumulating the
// parameter gradients into g.
func backwardSeq(l *LSTM, caches []*StepCache, dhs []tensor.Vector, g *LSTMGrads) {
	dhNext := tensor.NewVector(l.HiddenSize)
	dcNext := tensor.NewVector(l.HiddenSize)
	for t := len(caches) - 1; t >= 0; t-- {
		dh := dhs[t].Clone()
		dh.Add(dhNext)
		_, dhNext, dcNext = l.StepBackward(caches[t], dh, dcNext, g)
	}
}
