// Package quant implements the fixed-point quantization used by the
// CAM-friendly few-shot pipelines of §IV (floating-point feature vectors
// are converted to low-precision fixed point before TCAM storage) and by
// the reduced-precision discussion of §II: symmetric uniform quantizers
// with 2–8 bits and fixed clipping scales in the spirit of PACT (paper
// ref. [13]).
package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Quantizer maps real values onto a symmetric uniform grid of 2^Bits levels
// spanning [-Scale, +Scale].
type Quantizer struct {
	Bits  int
	Scale float64
}

// New returns a quantizer; it panics for bits outside [1, 16] or a
// non-positive scale.
func New(bits int, scale float64) *Quantizer {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("quant: bits must be in [1,16], got %d", bits))
	}
	if scale <= 0 {
		panic("quant: scale must be positive")
	}
	return &Quantizer{Bits: bits, Scale: scale}
}

// Levels reports the number of representable values.
func (q *Quantizer) Levels() int { return 1 << uint(q.Bits) }

func (q *Quantizer) step() float64 {
	return 2 * q.Scale / float64(q.Levels()-1)
}

// Index returns the integer code (0 .. Levels-1) for x, clipping to range.
func (q *Quantizer) Index(x float64) int {
	k := int(math.Round((x + q.Scale) / q.step()))
	if k < 0 {
		k = 0
	} else if k > q.Levels()-1 {
		k = q.Levels() - 1
	}
	return k
}

// Value returns the real value represented by integer code k.
func (q *Quantizer) Value(k int) float64 {
	return -q.Scale + float64(k)*q.step()
}

// Quantize rounds x to its nearest representable value.
func (q *Quantizer) Quantize(x float64) float64 { return q.Value(q.Index(x)) }

// QuantizeVec returns a new vector with every element quantized.
func (q *Quantizer) QuantizeVec(v tensor.Vector) tensor.Vector {
	out := make(tensor.Vector, len(v))
	for i, x := range v {
		out[i] = q.Quantize(x)
	}
	return out
}

// Codes returns the integer codes for every element of v — the fixed-point
// representation stored in CAM rows.
func (q *Quantizer) Codes(v tensor.Vector) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = q.Index(x)
	}
	return out
}
