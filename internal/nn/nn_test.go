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
	tensor.Vector(dm.M.Data).Fill(0)
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

func TestLossFunctions(t *testing.T) {
	if got := CrossEntropy(tensor.Vector{0.5, 0.5}, 0); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("CE = %v, want ln2", got)
	}
	if got := CrossEntropy(tensor.Vector{0, 1}, 0); math.IsInf(got, 1) {
		t.Error("CE must be finite under clamping")
	}
	if got := BCE(tensor.Vector{0.5}, tensor.Vector{1}); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("BCE = %v, want ln2", got)
	}
	if got := BCE(tensor.Vector{1}, tensor.Vector{1}); got > 1e-9 {
		t.Errorf("BCE perfect pred = %v, want ~0", got)
	}
}
