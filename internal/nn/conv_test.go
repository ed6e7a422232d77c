package nn

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func TestImageAccessors(t *testing.T) {
	im := NewImage(2, 3, 4)
	im.Set(1, 2, 3, 7)
	if im.At(1, 2, 3) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	f := im.Flatten()
	if len(f) != 24 {
		t.Fatalf("Flatten len = %d", len(f))
	}
	f[0] = 99
	if im.Data[0] == 99 {
		t.Fatal("Flatten must copy")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	rng := rngutil.New(1)
	c := NewConv2D(1, 1, 3, rng)
	// Identity-center kernel: output = input interior (after ReLU).
	for i := range c.Kernels[0].Data {
		c.Kernels[0].Data[i] = 0
	}
	c.Kernels[0].Set(0, 1, 1, 1)
	c.Bias[0] = 0

	in := NewImage(1, 5, 5)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			in.Set(0, y, x, float64(y*5+x))
		}
	}
	out := c.Forward(in)
	if out.H != 3 || out.W != 3 {
		t.Fatalf("out shape %dx%d", out.H, out.W)
	}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if out.At(0, y, x) != in.At(0, y+1, x+1) {
				t.Fatalf("identity conv wrong at (%d,%d)", y, x)
			}
		}
	}
}

func TestConv2DGradientCheck(t *testing.T) {
	rng := rngutil.New(5)
	c := NewConv2D(1, 2, 3, rng)
	in := NewImage(1, 6, 6)
	dr := rng.Child("in")
	for i := range in.Data {
		in.Data[i] = dr.NormFloat64()
	}
	target := NewImage(2, 4, 4)
	for i := range target.Data {
		target.Data[i] = dr.NormFloat64()
	}

	loss := func() float64 {
		out := c.Forward(in)
		return mse(tensor.Vector(out.Data), tensor.Vector(target.Data))
	}

	out := c.Forward(in)
	dout := NewImage(2, 4, 4)
	g := mseGrad(tensor.Vector(out.Data), tensor.Vector(target.Data))
	copy(dout.Data, g)
	// Analytic kernel grad via small-lr trick.
	kBefore := c.Kernels[0].Data[4]
	const lr = 1e-7
	din := c.Backward(dout, lr)
	analyticKernelGrad := (kBefore - c.Kernels[0].Data[4]) / lr
	c.Kernels[0].Data[4] = kBefore

	const h = 1e-5
	c.Kernels[0].Data[4] = kBefore + h
	lp := loss()
	c.Kernels[0].Data[4] = kBefore - h
	lm := loss()
	c.Kernels[0].Data[4] = kBefore
	numeric := (lp - lm) / (2 * h)
	if math.Abs(numeric-analyticKernelGrad) > 1e-3 {
		t.Errorf("kernel grad: numeric %v vs analytic %v", numeric, analyticKernelGrad)
	}

	// Input gradient check.
	iBefore := in.Data[10]
	in.Data[10] = iBefore + h
	lp = loss()
	in.Data[10] = iBefore - h
	lm = loss()
	in.Data[10] = iBefore
	numeric = (lp - lm) / (2 * h)
	if math.Abs(numeric-din.Data[10]) > 1e-4 {
		t.Errorf("input grad: numeric %v vs analytic %v", numeric, din.Data[10])
	}
}

func TestMaxPool2(t *testing.T) {
	in := NewImage(1, 4, 4)
	copy(in.Data, []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	p := &MaxPool2{}
	out := p.Forward(in)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool shape %dx%d", out.H, out.W)
	}
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool = %v, want %v", out.Data, want)
		}
	}
	dout := NewImage(1, 2, 2)
	dout.Data = []float64{1, 1, 1, 1}
	din := p.Backward(dout)
	// Gradient must land only on the argmax positions.
	if din.At(0, 1, 1) != 1 || din.At(0, 0, 0) != 0 {
		t.Fatal("pool backward routing wrong")
	}
}

func TestConvNetEmbedTrains(t *testing.T) {
	rng := rngutil.New(9)
	net := NewConvNet(1, 12, 12, []int{4}, 8, rng)
	im := NewImage(1, 12, 12)
	dr := rng.Child("im")
	for i := range im.Data {
		im.Data[i] = dr.Float64()
	}
	target := make(tensor.Vector, 8)
	for i := range target {
		target[i] = dr.NormFloat64() * 0.2
	}
	var first, last float64
	for it := 0; it < 40; it++ {
		e := net.Embed(im)
		loss := mse(e, target)
		if it == 0 {
			first = loss
		}
		last = loss
		net.Backward(mseGrad(e, target), 0.01)
	}
	if last >= first*0.5 {
		t.Fatalf("ConvNet did not train: first %v last %v", first, last)
	}
}
