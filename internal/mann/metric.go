// Package mann implements memory-augmented neural networks: the NTM-style
// differentiable memory of §III (content addressing, soft read, soft write),
// the key-value lifelong memory module used for one/few-shot learning in
// §IV, the similarity metrics the paper's CAM study compares (cosine, L1,
// L2, L∞, combined L∞+L2, LSH Hamming), and the episodic evaluation harness
// that produces the accuracy tables of experiments C4 and F5.
package mann

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Metric identifies a vector similarity/distance used for memory retrieval.
type Metric int

// Supported retrieval metrics. Similarities are converted internally so
// that *larger Score is always better*.
const (
	Cosine Metric = iota
	L1
	L2
	Linf
	// LinfL2 is the combined metric of §IV-B.1 (paper ref. [48]): an L∞
	// prefilter selects a candidate set (cheap on a TCAM via cube queries)
	// and L2 ranks within it.
	LinfL2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case L1:
		return "l1"
	case L2:
		return "l2"
	case Linf:
		return "linf"
	case LinfL2:
		return "linf+l2"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Score returns the similarity of query and key under m (larger = more
// similar). Distances are negated.
func (m Metric) Score(query, key tensor.Vector) float64 {
	switch m {
	case Cosine:
		return tensor.CosineSimilarity(query, key)
	case L1:
		return -tensor.ManhattanDistance(query, key)
	case L2:
		return -tensor.EuclideanDistance(query, key)
	case Linf:
		return -tensor.ChebyshevDistance(query, key)
	case LinfL2:
		// Pairwise fallback when the combined metric is scored one key at a
		// time; Nearest implements the real two-stage form.
		return -tensor.ChebyshevDistance(query, key)
	}
	panic("mann: unknown metric")
}

// Nearest returns the index of the best-scoring key for the query, or -1
// for an empty key set. For LinfL2 it performs the two-stage search of
// §IV-B.1: an L∞ prefilter retains keys within 25 % of the best cube
// radius, and L2 ranks the survivors.
func (m Metric) Nearest(query tensor.Vector, keys []tensor.Vector) int {
	if m == LinfL2 {
		return nearestLinfL2(query, keys)
	}
	best, bestScore := -1, math.Inf(-1)
	for i, k := range keys {
		if s := m.Score(query, k); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// nearestLinfL2 is the software rendering of the TCAM flow: find the
// minimal L∞ cube radius that contains at least one key, widen it slightly
// (one expansion step), and pick the L2-nearest key inside.
func nearestLinfL2(query tensor.Vector, keys []tensor.Vector) int {
	if len(keys) == 0 {
		return -1
	}
	dists := make([]float64, len(keys))
	minD := math.Inf(1)
	for i, k := range keys {
		dists[i] = tensor.ChebyshevDistance(query, k)
		if dists[i] < minD {
			minD = dists[i]
		}
	}
	cutoff := minD * 1.25
	best, bestL2 := -1, math.Inf(1)
	for i, k := range keys {
		if dists[i] > cutoff {
			continue
		}
		if d := tensor.EuclideanDistance(query, k); d < bestL2 {
			best, bestL2 = i, d
		}
	}
	return best
}
