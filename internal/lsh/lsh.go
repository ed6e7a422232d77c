// Package lsh implements random-hyperplane locality-sensitive hashing
// (paper ref. [56]), the encoding that lets a TCAM perform similarity
// search: real-valued feature vectors are hashed to binary signatures whose
// Hamming distance approximates angular (cosine) distance, so a single
// parallel Hamming search over a TCAM replaces M·D floating-point
// multiplications (§IV-B.2).
package lsh

import (
	"fmt"

	"repro/internal/par"
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
// adds no storage or compute, and Sign runs it on the same tiled MVM
// kernel as the crossbar layers.
type Hasher struct {
	Dim    int
	planes *tensor.Matrix // one hyperplane per row
}

// NewHasher draws nPlanes random Gaussian hyperplanes for dim-dimensional
// inputs.
func NewHasher(dim, nPlanes int, rng *rngutil.Source) *Hasher {
	pr := rng.Child("planes")
	planes := tensor.NewMatrix(nPlanes, dim)
	for i := range planes.Data {
		planes.Data[i] = pr.NormFloat64()
	}
	return &Hasher{Dim: dim, planes: planes}
}

// NumPlanes reports the signature length in bits.
func (h *Hasher) NumPlanes() int { return h.planes.Rows }

// Sign computes the signature of v: bit p is 1 iff v lies on the positive
// side of hyperplane p. The projections are one par.MatVec, bit-identical
// to a tensor.Dot per plane at every worker count.
func (h *Hasher) Sign(v tensor.Vector) Signature {
	if len(v) != h.Dim {
		panic(fmt.Sprintf("lsh: input dim %d, hasher expects %d", len(v), h.Dim))
	}
	n := h.planes.Rows
	s := Signature{Bits: n, Words: make([]uint64, (n+63)/64)}
	for p, y := range par.MatVec(h.planes, v) {
		if y >= 0 {
			s.set(p)
		}
	}
	return s
}

// MACsPerSignature reports the multiply-accumulate cost of hashing one
// vector (identical to one dense layer of the same shape).
func (h *Hasher) MACsPerSignature() int { return h.Dim * h.planes.Rows }
