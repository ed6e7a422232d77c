package nn

import (
	"fmt"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// DenseLayer is one fully connected layer y = act(W·[x;1]).
//
// The bias is folded into the weight matrix as an extra input column driven
// by a constant 1, mirroring how analog crossbars implement biases with a
// dedicated always-on input line. W therefore has shape out × (in+1) when
// Bias is true.
type DenseLayer struct {
	In, Out int
	Bias    bool
	Act     Activation
	W       Mat

	// caches from the most recent Forward, used by Backward.
	x tensor.Vector // extended input [x;1]
	z tensor.Vector // pre-activation
	y tensor.Vector // activation
}

// MatFactory constructs the weight storage for a layer; it lets callers swap
// dense digital matrices for simulated analog arrays.
type MatFactory func(rows, cols int) Mat

// DenseFactory builds exact digital matrices with Xavier initialization.
func DenseFactory(rng *rngutil.Source) MatFactory {
	return func(rows, cols int) Mat {
		d := NewDenseMat(rows, cols)
		InitXavier(d.M, rng.Child(fmt.Sprintf("xavier-%dx%d", rows, cols)))
		return d
	}
}

// NewDenseLayer builds a layer with weights from factory.
func NewDenseLayer(in, out int, act Activation, bias bool, factory MatFactory) *DenseLayer {
	cols := in
	if bias {
		cols++
	}
	return &DenseLayer{In: in, Out: out, Bias: bias, Act: act, W: factory(out, cols)}
}

// extend returns [x;1] when the layer has a bias, else x itself.
func (l *DenseLayer) extend(x tensor.Vector) tensor.Vector {
	if !l.Bias {
		return x
	}
	ext := make(tensor.Vector, len(x)+1)
	copy(ext, x)
	ext[len(x)] = 1
	return ext
}

// Forward runs the layer and caches intermediates for Backward.
func (l *DenseLayer) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: layer expects %d inputs, got %d", l.In, len(x)))
	}
	l.x = l.extend(x)
	l.z = l.W.Forward(l.x)
	l.y = l.Act.apply(l.z)
	return l.y
}

// ForwardBatch runs the layer on a batch of inputs through the weight
// storage's batched MVM path, without touching the Backward caches — the
// inference path used by evaluation loops and serving pipelines. Outputs
// are bit-identical to calling Forward on each input in order.
func (l *DenseLayer) ForwardBatch(xs []tensor.Vector) []tensor.Vector {
	ext := make([]tensor.Vector, len(xs))
	for i, x := range xs {
		if len(x) != l.In {
			panic(fmt.Sprintf("nn: layer expects %d inputs, got %d (sample %d)", l.In, len(x), i))
		}
		ext[i] = l.extend(x)
	}
	zs := ForwardBatch(l.W, ext)
	ys := make([]tensor.Vector, len(zs))
	for i, z := range zs {
		ys[i] = l.Act.apply(z)
	}
	return ys
}

// Backward consumes dL/dy and returns dL/dx for the layer below, applying
// the weight update W += -lr·(δ ⊗ x) in the same pass (lr == 0 skips the
// update, e.g. for inference-only sensitivity analysis).
func (l *DenseLayer) Backward(dy tensor.Vector, lr float64) tensor.Vector {
	delta := l.delta(dy)
	// dL/dx before the bias column is stripped.
	dxExt := l.W.Backward(delta)
	l.update(delta, lr)
	if l.Bias {
		return dxExt[:l.In]
	}
	return dxExt
}

// Learn is Backward for a caller that discards dL/dx: the backward cycle
// runs through SkipBackward, so storage that can skip the transposed MVM
// does, with every other effect (update, op counts, random streams) the
// same as Backward's.
func (l *DenseLayer) Learn(dy tensor.Vector, lr float64) {
	delta := l.delta(dy)
	SkipBackward(l.W, delta)
	l.update(delta, lr)
}

// delta is dL/dz from dL/dy and the cached forward pass.
func (l *DenseLayer) delta(dy tensor.Vector) tensor.Vector {
	if l.x == nil {
		panic("nn: Backward called before Forward")
	}
	return tensor.Hadamard(dy, l.Act.prime(l.z, l.y))
}

// update applies W += -lr·(δ ⊗ x); lr == 0 skips it.
func (l *DenseLayer) update(delta tensor.Vector, lr float64) {
	if lr != 0 {
		l.W.Update(-lr, delta, l.x)
	}
}

// MLP is a feedforward stack of dense layers.
type MLP struct {
	Layers []*DenseLayer
}

// NewMLP builds an MLP with the given layer sizes (sizes[0] inputs through
// sizes[len-1] outputs). Hidden layers use hiddenAct; the final layer uses
// outAct. All layers carry biases.
func NewMLP(sizes []int, hiddenAct, outAct Activation, factory MatFactory) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDenseLayer(sizes[i], sizes[i+1], act, true, factory))
	}
	return m
}

// Forward runs the full stack.
func (m *MLP) Forward(x tensor.Vector) tensor.Vector {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dL/dy_out down the stack, updating every layer with
// learning rate lr, and returns dL/dx_in.
func (m *MLP) Backward(dy tensor.Vector, lr float64) tensor.Vector {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].Backward(dy, lr)
	}
	return dy
}

// Learn is Backward for a caller that discards dL/dx_in: every layer
// updates exactly as under Backward, but the bottom layer's backward cycle
// goes through SkipBackward, since no layer below reads its result.
func (m *MLP) Learn(dy tensor.Vector, lr float64) {
	for i := len(m.Layers) - 1; i > 0; i-- {
		dy = m.Layers[i].Backward(dy, lr)
	}
	m.Layers[0].Learn(dy, lr)
}

// TrainStep performs one softmax-cross-entropy SGD step on (x, label) and
// returns the loss before the update. The final layer must use SoftmaxAct.
func (m *MLP) TrainStep(x tensor.Vector, label int, lr float64) float64 {
	probs := m.Forward(x)
	loss := CrossEntropy(probs, label)
	// d(CE∘softmax)/dz = p - onehot; the softmax layer's prime is identity.
	dy := probs.Clone()
	dy[label] -= 1
	m.Learn(dy, lr)
	return loss
}

// ForwardBatch runs the full stack on a batch of inputs through each
// layer's batched MVM path. Outputs are bit-identical to calling Forward on
// each input in order: per layer the batched MVMs preserve the sequential
// summation order and periphery-randomness sequence, and when any layer's
// weight storage pins its op order (a crossbar with a fault hook attached,
// whose hook state is shared across layers and order-sensitive) the whole
// batch falls back to the literal per-sample sequential stream. Layer
// Backward caches are untouched on the batched path but clobbered on the
// fallback, as with any Forward.
func (m *MLP) ForwardBatch(xs []tensor.Vector) []tensor.Vector {
	for _, l := range m.Layers {
		if opOrderPinned(l.W) {
			ys := make([]tensor.Vector, len(xs))
			for i, x := range xs {
				ys[i] = m.Forward(x)
			}
			return ys
		}
	}
	for _, l := range m.Layers {
		xs = l.ForwardBatch(xs)
	}
	return xs
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(x tensor.Vector) int { return m.Forward(x).ArgMax() }

// Accuracy evaluates classification accuracy over a set of examples,
// batching the forward passes through the weight storage.
func (m *MLP) Accuracy(xs []tensor.Vector, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, y := range m.ForwardBatch(xs) {
		if y.ArgMax() == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
