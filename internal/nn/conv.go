package nn

import (
	"fmt"
	"math"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Image is a dense C×H×W feature map stored channel-major.
type Image struct {
	C, H, W int
	Data    []float64
}

// NewImage returns a zeroed C×H×W image.
func NewImage(c, h, w int) *Image {
	return &Image{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// At returns element (c, y, x).
func (im *Image) At(c, y, x int) float64 { return im.Data[(c*im.H+y)*im.W+x] }

// Set assigns element (c, y, x).
func (im *Image) Set(c, y, x int, v float64) { im.Data[(c*im.H+y)*im.W+x] = v }

// Flatten returns the image contents as a vector (a copy).
func (im *Image) Flatten() tensor.Vector {
	out := make(tensor.Vector, len(im.Data))
	copy(out, im.Data)
	return out
}

// Conv2D is a valid-padding, stride-1 2-D convolution layer with ReLU,
// the building block of the 4-layer embedding CNN used by the few-shot
// pipelines in §IV (the paper's ref. [48]).
type Conv2D struct {
	InC, OutC, K int
	// Kernels[o] is the o-th filter: InC × K × K, stored like an Image.
	Kernels []*Image
	Bias    tensor.Vector

	in   *Image // cached input
	preZ *Image // cached pre-activation
}

// NewConv2D builds a convolution layer with He-initialized kernels.
func NewConv2D(inC, outC, k int, rng *rngutil.Source) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, K: k, Bias: tensor.NewVector(outC)}
	std := math.Sqrt(2.0 / float64(inC*k*k))
	for o := 0; o < outC; o++ {
		ker := NewImage(inC, k, k)
		for i := range ker.Data {
			ker.Data[i] = rng.Normal(0, std)
		}
		c.Kernels = append(c.Kernels, ker)
	}
	return c
}

// OutShape reports the output dimensions for an inH×inW input.
func (c *Conv2D) OutShape(inH, inW int) (int, int) { return inH - c.K + 1, inW - c.K + 1 }

// Forward applies the convolution and ReLU.
func (c *Conv2D) Forward(in *Image) *Image {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d channels, got %d", c.InC, in.C))
	}
	outH, outW := c.OutShape(in.H, in.W)
	if outH <= 0 || outW <= 0 {
		panic("nn: Conv2D input smaller than kernel")
	}
	c.in = in
	c.preZ = NewImage(c.OutC, outH, outW)
	out := NewImage(c.OutC, outH, outW)
	for o := 0; o < c.OutC; o++ {
		ker := c.Kernels[o]
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				s := c.Bias[o]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							s += ker.At(ic, ky, kx) * in.At(ic, y+ky, x+kx)
						}
					}
				}
				c.preZ.Set(o, y, x, s)
				out.Set(o, y, x, tensor.ReLU(s))
			}
		}
	}
	return out
}

// Backward consumes dL/dout, applies SGD with learning rate lr, and returns
// dL/din.
func (c *Conv2D) Backward(dout *Image, lr float64) *Image {
	in := c.in
	din := NewImage(in.C, in.H, in.W)
	c.backward(dout, lr, din)
	return din
}

// Learn is Backward for a caller that discards dL/din (the bottom layer of
// a network): the kernels and biases move exactly as under Backward, but
// the input-gradient accumulation is skipped.
func (c *Conv2D) Learn(dout *Image, lr float64) { c.backward(dout, lr, nil) }

// backward applies the SGD step and, when din is non-nil, accumulates
// dL/din into it.
func (c *Conv2D) backward(dout *Image, lr float64, din *Image) {
	in := c.in
	for o := 0; o < c.OutC; o++ {
		ker := c.Kernels[o]
		dker := NewImage(c.InC, c.K, c.K)
		var dbias float64
		for y := 0; y < dout.H; y++ {
			for x := 0; x < dout.W; x++ {
				g := dout.At(o, y, x)
				if c.preZ.At(o, y, x) <= 0 {
					continue // ReLU gate
				}
				dbias += g
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							dker.Set(ic, ky, kx, dker.At(ic, ky, kx)+g*in.At(ic, y+ky, x+kx))
							if din != nil {
								din.Set(ic, y+ky, x+kx, din.At(ic, y+ky, x+kx)+g*ker.At(ic, ky, kx))
							}
						}
					}
				}
			}
		}
		for i := range ker.Data {
			ker.Data[i] -= lr * dker.Data[i]
		}
		c.Bias[o] -= lr * dbias
	}
}

// MaxPool2 is a 2×2, stride-2 max-pooling layer.
type MaxPool2 struct {
	in     *Image
	argmax []int // flat input index of each output's maximum
}

// Forward pools the image; odd trailing rows/columns are dropped.
func (p *MaxPool2) Forward(in *Image) *Image {
	outH, outW := in.H/2, in.W/2
	out := NewImage(in.C, outH, outW)
	p.in = in
	p.argmax = make([]int, in.C*outH*outW)
	idx := 0
	for c := 0; c < in.C; c++ {
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				best := math.Inf(-1)
				bestIdx := 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						iy, ix := 2*y+dy, 2*x+dx
						v := in.At(c, iy, ix)
						if v > best {
							best = v
							bestIdx = (c*in.H+iy)*in.W + ix
						}
					}
				}
				out.Set(c, y, x, best)
				p.argmax[idx] = bestIdx
				idx++
			}
		}
	}
	return out
}

// Backward routes gradients to the argmax positions.
func (p *MaxPool2) Backward(dout *Image) *Image {
	din := NewImage(p.in.C, p.in.H, p.in.W)
	for i, g := range dout.Data {
		din.Data[p.argmax[i]] += g
	}
	return din
}

// ConvNet is the small embedding CNN: repeated (conv3×3 + ReLU + pool2)
// blocks followed by a dense projection to the embedding dimension.
type ConvNet struct {
	Convs []*Conv2D
	Pools []*MaxPool2
	Proj  *DenseLayer

	flatShape *Image // shape of the last feature map, for Backward
}

// NewConvNet builds a CNN for inC×inH×inW inputs with the given channel
// widths per block and a final embedding dimension.
func NewConvNet(inC, inH, inW int, channels []int, embedDim int, rng *rngutil.Source) *ConvNet {
	net := &ConvNet{}
	c, h, w := inC, inH, inW
	for bi, ch := range channels {
		conv := NewConv2D(c, ch, 3, rng.Child(fmt.Sprintf("conv%d", bi)))
		net.Convs = append(net.Convs, conv)
		net.Pools = append(net.Pools, &MaxPool2{})
		h, w = conv.OutShape(h, w)
		h, w = h/2, w/2
		c = ch
		if h < 3 || w < 3 {
			break
		}
	}
	flat := c * h * w
	net.Proj = NewDenseLayer(flat, embedDim, Identity, true, DenseFactory(rng.Child("proj")))
	return net
}

// Embed returns the embedding vector for an image.
func (n *ConvNet) Embed(im *Image) tensor.Vector {
	x := im
	for i, conv := range n.Convs {
		x = conv.Forward(x)
		x = n.Pools[i].Forward(x)
	}
	n.flatShape = x
	return n.Proj.Forward(x.Flatten())
}

// Backward propagates dL/dembedding through the network with learning rate
// lr, updating all parameters.
func (n *ConvNet) Backward(dembed tensor.Vector, lr float64) {
	dflat := n.Proj.Backward(dembed, lr)
	d := NewImage(n.flatShape.C, n.flatShape.H, n.flatShape.W)
	copy(d.Data, dflat)
	for i := len(n.Convs) - 1; i > 0; i-- {
		d = n.Pools[i].Backward(d)
		d = n.Convs[i].Backward(d, lr)
	}
	// Nothing below the first conv reads its input gradient.
	if len(n.Convs) > 0 {
		n.Convs[0].Learn(n.Pools[0].Backward(d), lr)
	}
}
