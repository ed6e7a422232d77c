package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ConvMat is a valid-padding, stride-1 convolution layer whose kernel bank
// lives behind the Mat interface: each receptive field is flattened
// (im2col) and pushed through the outC × (inC·K·K + 1) kernel matrix as one
// MVM, with the bias folded as a constant-1 column. With a crossbar-backed
// Mat this is exactly how CNNs map onto analog arrays for training
// (the paper's §II, ref. [19]): every patch position is one forward MVM,
// one backward MVM, and one rank-1 pulse update.
type ConvMat struct {
	InC, OutC, K int
	W            Mat

	in    *Image
	preZ  *Image
	patch tensor.Vector // scratch, reused across positions
}

// NewConvMat builds the layer with kernels from factory.
func NewConvMat(inC, outC, k int, factory MatFactory) *ConvMat {
	cols := inC*k*k + 1
	return &ConvMat{
		InC: inC, OutC: outC, K: k,
		W:     factory(outC, cols),
		patch: make(tensor.Vector, cols),
	}
}

// OutShape reports the output dimensions for an inH×inW input.
func (c *ConvMat) OutShape(inH, inW int) (int, int) { return inH - c.K + 1, inW - c.K + 1 }

// gather fills c.patch with the receptive field at (y, x) plus the bias 1.
func (c *ConvMat) gather(in *Image, y, x int) tensor.Vector {
	idx := 0
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				c.patch[idx] = in.At(ic, y+ky, x+kx)
				idx++
			}
		}
	}
	c.patch[idx] = 1
	return c.patch
}

// Forward applies the convolution and ReLU, one MVM per output position.
func (c *ConvMat) Forward(in *Image) *Image {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: ConvMat expects %d channels, got %d", c.InC, in.C))
	}
	outH, outW := c.OutShape(in.H, in.W)
	if outH <= 0 || outW <= 0 {
		panic("nn: ConvMat input smaller than kernel")
	}
	c.in = in
	c.preZ = NewImage(c.OutC, outH, outW)
	out := NewImage(c.OutC, outH, outW)
	for y := 0; y < outH; y++ {
		for x := 0; x < outW; x++ {
			z := c.W.Forward(c.gather(in, y, x))
			for o := 0; o < c.OutC; o++ {
				c.preZ.Set(o, y, x, z[o])
				out.Set(o, y, x, tensor.ReLU(z[o]))
			}
		}
	}
	return out
}

// Backward consumes dL/dout, updates the kernels through the Mat (one
// rank-1 update per patch position), and returns dL/din.
func (c *ConvMat) Backward(dout *Image, lr float64) *Image {
	din := NewImage(c.in.C, c.in.H, c.in.W)
	c.backward(dout, lr, din)
	return din
}

// Learn is Backward for a caller that discards dL/din: each patch's
// backward cycle goes through SkipBackward, so storage that can skip the
// transposed MVM does, and the updates are exactly Backward's.
func (c *ConvMat) Learn(dout *Image, lr float64) { c.backward(dout, lr, nil) }

// backward runs one backward cycle and one update per active patch
// position and, when din is non-nil, accumulates dL/din into it.
func (c *ConvMat) backward(dout *Image, lr float64, din *Image) {
	in := c.in
	delta := make(tensor.Vector, c.OutC)
	for y := 0; y < dout.H; y++ {
		for x := 0; x < dout.W; x++ {
			active := false
			for o := 0; o < c.OutC; o++ {
				if c.preZ.At(o, y, x) > 0 {
					delta[o] = dout.At(o, y, x)
					if delta[o] != 0 {
						active = true
					}
				} else {
					delta[o] = 0
				}
			}
			if !active {
				continue
			}
			if din == nil {
				SkipBackward(c.W, delta)
			} else {
				dpatch := c.W.Backward(delta)
				idx := 0
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							din.Set(ic, y+ky, x+kx, din.At(ic, y+ky, x+kx)+dpatch[idx])
							idx++
						}
					}
				}
			}
			if lr != 0 {
				c.W.Update(-lr, delta, c.gather(in, y, x))
			}
		}
	}
}
