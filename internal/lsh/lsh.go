// Package lsh implements random-hyperplane locality-sensitive hashing
// (paper ref. [56]), the encoding that lets a TCAM perform similarity
// search: real-valued feature vectors are hashed to binary signatures whose
// Hamming distance approximates angular (cosine) distance, so a single
// parallel Hamming search over a TCAM replaces M·D floating-point
// multiplications (§IV-B.2).
package lsh

import (
	"fmt"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Signature is a packed binary LSH signature.
type Signature struct {
	Bits  int
	Words []uint64
}

// Get reports bit i.
func (s Signature) Get(i int) bool { return s.Words[i/64]&(1<<uint(i%64)) != 0 }

// set sets bit i.
func (s Signature) set(i int) { s.Words[i/64] |= 1 << uint(i%64) }

// Hasher maps feature vectors to binary signatures using random projection
// hyperplanes. In the few-shot pipeline of Fig. 5 it replaces the CNN's
// last fully connected layer (paper ref. [9]): computationally it is the
// same dense matrix-vector product followed by a sign, so the substitution
// adds no storage or compute.
type Hasher struct {
	Dim    int
	Planes []tensor.Vector
}

// NewHasher draws nPlanes random Gaussian hyperplanes for dim-dimensional
// inputs.
func NewHasher(dim, nPlanes int, rng *rngutil.Source) *Hasher {
	h := &Hasher{Dim: dim}
	pr := rng.Child("planes")
	for p := 0; p < nPlanes; p++ {
		v := make(tensor.Vector, dim)
		for i := range v {
			v[i] = pr.NormFloat64()
		}
		h.Planes = append(h.Planes, v)
	}
	return h
}

// NumPlanes reports the signature length in bits.
func (h *Hasher) NumPlanes() int { return len(h.Planes) }

// Sign computes the signature of v: bit p is 1 iff v lies on the positive
// side of hyperplane p.
func (h *Hasher) Sign(v tensor.Vector) Signature {
	if len(v) != h.Dim {
		panic(fmt.Sprintf("lsh: input dim %d, hasher expects %d", len(v), h.Dim))
	}
	s := Signature{Bits: len(h.Planes), Words: make([]uint64, (len(h.Planes)+63)/64)}
	for p, plane := range h.Planes {
		if tensor.Dot(plane, v) >= 0 {
			s.set(p)
		}
	}
	return s
}

// MACsPerSignature reports the multiply-accumulate cost of hashing one
// vector (identical to one dense layer of the same shape).
func (h *Hasher) MACsPerSignature() int { return h.Dim * len(h.Planes) }
