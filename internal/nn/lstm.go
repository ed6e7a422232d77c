package nn

import (
	"fmt"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// LSTM is a single-layer long short-term memory network (Hochreiter &
// Schmidhuber, the paper's ref. [51]) used as the recurrent controller of
// the memory-augmented networks in §III. Its owner carries the recurrent
// state and steps it with StepWithCache and StepBackward, so BPTT can run
// through inputs that depend on the model's own previous outputs.
type LSTM struct {
	InSize, HiddenSize int

	// Gate order within the stacked matrices: input, forget, output, cell.
	Wx *tensor.Matrix // 4H × In
	Wh *tensor.Matrix // 4H × H
	B  tensor.Vector  // 4H
}

// StepCache holds the intermediates of one time step needed by BPTT.
type StepCache struct {
	x, hPrev, cPrev        tensor.Vector
	i, f, o, g, c, h, tanc tensor.Vector
}

// NewLSTM builds an LSTM with Xavier-initialized weights and a forget-gate
// bias of 1 (the standard trick that eases gradient flow early in training).
func NewLSTM(inSize, hiddenSize int, rng *rngutil.Source) *LSTM {
	l := &LSTM{
		InSize:     inSize,
		HiddenSize: hiddenSize,
		Wx:         tensor.NewMatrix(4*hiddenSize, inSize),
		Wh:         tensor.NewMatrix(4*hiddenSize, hiddenSize),
		B:          tensor.NewVector(4 * hiddenSize),
	}
	InitXavier(l.Wx, rng.Child("lstm-wx"))
	InitXavier(l.Wh, rng.Child("lstm-wh"))
	for j := 0; j < hiddenSize; j++ {
		l.B[hiddenSize+j] = 1 // forget gate bias
	}
	return l
}

// StepWithCache advances one time step from an explicit previous state and
// returns the new state plus the cache needed by StepBackward.
func (l *LSTM) StepWithCache(x, hPrev, cPrev tensor.Vector) (h, c tensor.Vector, cache *StepCache) {
	if len(x) != l.InSize {
		panic(fmt.Sprintf("nn: LSTM expects %d inputs, got %d", l.InSize, len(x)))
	}
	H := l.HiddenSize
	z := l.Wx.MatVec(x)
	z.Add(l.Wh.MatVec(hPrev))
	z.Add(l.B)

	cache = &StepCache{
		x: x.Clone(), hPrev: hPrev.Clone(), cPrev: cPrev.Clone(),
		i: make(tensor.Vector, H), f: make(tensor.Vector, H),
		o: make(tensor.Vector, H), g: make(tensor.Vector, H),
		c: make(tensor.Vector, H), h: make(tensor.Vector, H),
		tanc: make(tensor.Vector, H),
	}
	for j := 0; j < H; j++ {
		cache.i[j] = tensor.Sigmoid(z[j])
		cache.f[j] = tensor.Sigmoid(z[H+j])
		cache.o[j] = tensor.Sigmoid(z[2*H+j])
		cache.g[j] = tensor.Tanh(z[3*H+j])
		cache.c[j] = cache.f[j]*cPrev[j] + cache.i[j]*cache.g[j]
		cache.tanc[j] = tensor.Tanh(cache.c[j])
		cache.h[j] = cache.o[j] * cache.tanc[j]
	}
	return cache.h, cache.c, cache
}

// StepBackward backpropagates one time step: given the step cache, the
// total dL/dh_t (external + recurrent) and the recurrent dL/dc_t flowing in
// from step t+1, it accumulates parameter gradients into g and returns
// dL/dx_t plus the recurrent gradients for step t−1.
func (l *LSTM) StepBackward(cc *StepCache, dh, dcIn tensor.Vector, g *LSTMGrads) (dx, dhPrev, dcPrev tensor.Vector) {
	H := l.HiddenSize
	dz := make(tensor.Vector, 4*H)
	dc := dcIn.Clone()
	for j := 0; j < H; j++ {
		do := dh[j] * cc.tanc[j]
		dc[j] += dh[j] * cc.o[j] * (1 - cc.tanc[j]*cc.tanc[j])
		di := dc[j] * cc.g[j]
		df := dc[j] * cc.cPrev[j]
		dg := dc[j] * cc.i[j]
		dz[j] = di * tensor.SigmoidPrime(cc.i[j])
		dz[H+j] = df * tensor.SigmoidPrime(cc.f[j])
		dz[2*H+j] = do * tensor.SigmoidPrime(cc.o[j])
		dz[3*H+j] = dg * tensor.TanhPrime(cc.g[j])
	}
	g.DWx.AddOuter(1, dz, cc.x)
	g.DWh.AddOuter(1, dz, cc.hPrev)
	g.DB.Add(dz)
	dx = l.Wx.MatVecT(dz)
	dhPrev = l.Wh.MatVecT(dz)
	dcPrev = make(tensor.Vector, H)
	for j := 0; j < H; j++ {
		dcPrev[j] = dc[j] * cc.f[j]
	}
	return dx, dhPrev, dcPrev
}

// LSTMGrads accumulates parameter gradients across a BPTT pass.
type LSTMGrads struct {
	DWx, DWh *tensor.Matrix
	DB       tensor.Vector
}

// NewLSTMGrads returns zeroed gradient storage matching l.
func (l *LSTM) NewLSTMGrads() *LSTMGrads {
	return &LSTMGrads{
		DWx: tensor.NewMatrix(4*l.HiddenSize, l.InSize),
		DWh: tensor.NewMatrix(4*l.HiddenSize, l.HiddenSize),
		DB:  tensor.NewVector(4 * l.HiddenSize),
	}
}

// ApplyGrads performs W -= lr·dW with optional gradient clipping (clip <= 0
// disables clipping).
func (l *LSTM) ApplyGrads(g *LSTMGrads, lr, clip float64) {
	scale := 1.0
	if clip > 0 {
		norm := g.DWx.FrobeniusNorm() + g.DWh.FrobeniusNorm() + g.DB.Norm2()
		if norm > clip {
			scale = clip / norm
		}
	}
	for i := range l.Wx.Data {
		l.Wx.Data[i] -= lr * scale * g.DWx.Data[i]
	}
	for i := range l.Wh.Data {
		l.Wh.Data[i] -= lr * scale * g.DWh.Data[i]
	}
	for i := range l.B {
		l.B[i] -= lr * scale * g.DB[i]
	}
}
