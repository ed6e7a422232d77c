package lsh

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func TestSignatureSelfDistanceZero(t *testing.T) {
	rng := rngutil.New(1)
	h := NewHasher(16, 64, rng)
	v := make(tensor.Vector, 16)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	s := h.Sign(v)
	if hamming(s, s) != 0 {
		t.Fatal("self distance must be 0")
	}
	// Signing the same vector twice must be deterministic.
	s2 := h.Sign(v)
	if hamming(s, s2) != 0 {
		t.Fatal("hashing must be deterministic")
	}
}

func randVec(rng *rngutil.Source, n int) tensor.Vector {
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// The LSH property: E[hamming(sig(a), sig(b))] / bits = angle(a,b)/π.
// Verify monotonicity and approximate calibration at 3 angles.
func TestCollisionProbabilityTracksAngle(t *testing.T) {
	rng := rngutil.New(4)
	const bits = 2048
	h := NewHasher(2, bits, rng)
	angles := []float64{0.1, math.Pi / 4, math.Pi / 2}
	prev := -1.0
	for _, th := range angles {
		a := tensor.Vector{1, 0}
		b := tensor.Vector{math.Cos(th), math.Sin(th)}
		frac := float64(hamming(h.Sign(a), h.Sign(b))) / bits
		want := th / math.Pi
		if math.Abs(frac-want) > 0.05 {
			t.Errorf("angle %v: hamming frac %v, want %v", th, frac, want)
		}
		if frac <= prev {
			t.Errorf("hamming fraction must grow with angle")
		}
		prev = frac
	}
}

func TestAntipodalVectorsMaxDistance(t *testing.T) {
	rng := rngutil.New(5)
	h := NewHasher(4, 256, rng)
	v := randVec(rng, 4)
	neg := v.Clone()
	neg.Scale(-1)
	d := hamming(h.Sign(v), h.Sign(neg))
	// Sign boundary handling (>= 0) can keep a few bits equal only when a
	// projection is exactly zero, which has measure zero here.
	if d != 256 {
		t.Fatalf("antipodal distance %d, want 256", d)
	}
}

func TestGetBit(t *testing.T) {
	rng := rngutil.New(6)
	h := NewHasher(3, 70, rng) // spans two words
	s := h.Sign(tensor.Vector{1, 2, 3})
	count := 0
	for i := 0; i < s.Bits; i++ {
		if s.Get(i) {
			count++
		}
	}
	// Cross-check popcount path with bit-by-bit path using an empty sig.
	zero := Signature{Bits: 70, Words: make([]uint64, 2)}
	if hamming(s, zero) != count {
		t.Fatalf("bit count mismatch: %d vs %d", hamming(s, zero), count)
	}
}

func TestMACsPerSignature(t *testing.T) {
	h := NewHasher(64, 128, rngutil.New(7))
	if h.MACsPerSignature() != 64*128 {
		t.Fatalf("MACs = %d", h.MACsPerSignature())
	}
	if h.NumPlanes() != 128 {
		t.Fatalf("NumPlanes = %d", h.NumPlanes())
	}
}

func TestInputDimPanics(t *testing.T) {
	h := NewHasher(4, 8, rngutil.New(8))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Sign(tensor.Vector{1, 2})
}

// Same-class vectors (small perturbations) must land closer in Hamming
// space than random other vectors — the property that makes TCAM retrieval
// work (§IV-B.2).
func TestLocalitySensitivity(t *testing.T) {
	rng := rngutil.New(9)
	h := NewHasher(32, 256, rng)
	base := randVec(rng, 32)
	near := base.Clone()
	for i := range near {
		near[i] += rng.Normal(0, 0.1)
	}
	far := randVec(rng, 32)
	dNear := hamming(h.Sign(base), h.Sign(near))
	dFar := hamming(h.Sign(base), h.Sign(far))
	if dNear >= dFar {
		t.Fatalf("near %d should beat far %d", dNear, dFar)
	}
}

// hamming returns the Hamming distance between two signatures of equal
// length.
func hamming(a, b Signature) int {
	d := 0
	for w := range a.Words {
		d += bits.OnesCount64(a.Words[w] ^ b.Words[w])
	}
	return d
}

// TestSignMatchesDot checks Sign against the per-plane tensor.Dot oracle:
// at odd dims, plane counts that are not a multiple of 16 (the MVM
// kernel's row block) and on the all-zero input, whose every projection
// is 0 and so sets every bit. It runs at one worker and at four.
func TestSignMatchesDot(t *testing.T) {
	defer par.SetWorkers(0)
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		rng := rngutil.New(10)
		for _, dim := range []int{1, 3, 17, 64, 255} {
			for _, planes := range []int{1, 5, 16, 33, 70, 128} {
				h := NewHasher(dim, planes, rng)
				for trial := 0; trial < 3; trial++ {
					v := randVec(rng, dim)
					if trial == 0 {
						v = make(tensor.Vector, dim)
					}
					s := h.Sign(v)
					if s.Bits != planes || len(s.Words) != (planes+63)/64 {
						t.Fatalf("dim %d planes %d: signature shape %d bits, %d words", dim, planes, s.Bits, len(s.Words))
					}
					for p := 0; p < planes; p++ {
						want := tensor.Dot(h.planes.Row(p), v) >= 0
						if s.Get(p) != want {
							t.Fatalf("workers %d, dim %d, planes %d, trial %d: bit %d = %v, want %v",
								workers, dim, planes, trial, p, s.Get(p), want)
						}
					}
					if trial == 0 && hamming(s, Signature{Bits: planes, Words: make([]uint64, len(s.Words))}) != planes {
						t.Fatalf("dim %d planes %d: the zero input must set every bit", dim, planes)
					}
				}
			}
		}
	}
}
