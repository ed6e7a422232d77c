package obs

import (
	"math"
	"sort"
)

// NearestRank returns the q-th quantile of the ascending-sorted sample set
// by the nearest-rank definition: the smallest element whose cumulative
// probability is at least q, i.e. sorted[ceil(q·n)-1]. Unlike the
// floor-truncated index int(q·(n-1)) it never rounds the rank down, so
// p99 over a small window picks the observed tail sample instead of a
// cheaper neighbor — the bias this helper exists to remove (it is the
// single quantile implementation shared by the hedging window, the
// campaign tables, and histogram summaries).
//
// Edge cases: an empty set reports 0; q <= 0 reports the minimum; q >= 1
// the maximum.
func NearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return sorted[k]
}

// Quantile is NearestRank over an unsorted sample set: it sorts a copy,
// leaving the input untouched.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return NearestRank(s, q)
}

// LatencyWindow is a fixed-size ring of the most recent latency samples
// with nearest-rank quantile queries — the adaptive hedge-delay estimator
// shared by the serve replicas and the cluster router. Queries sort a copy
// (the windows are tiny), so a window's answers depend only on the set of
// retained samples, never on where the ring cursor sits. A LatencyWindow is
// not synchronized; callers that share one must lock around it.
type LatencyWindow struct {
	buf  []float64
	n    int // valid entries
	next int
}

// NewLatencyWindow returns an empty window retaining the last size samples.
func NewLatencyWindow(size int) *LatencyWindow {
	return &LatencyWindow{buf: make([]float64, size)}
}

// Add records one sample, evicting the oldest once the window is full.
func (w *LatencyWindow) Add(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Len reports the number of retained samples.
func (w *LatencyWindow) Len() int { return w.n }

// Quantile returns the q-th nearest-rank quantile of the retained samples,
// or 0 when empty. Once the ring has wrapped, buf[:n] is the whole ring.
func (w *LatencyWindow) Quantile(q float64) float64 { return Quantile(w.buf[:w.n], q) }

// HedgeDelay returns the q-th quantile clamped to [min, max]: min floors
// the delay (and stands in while the window is empty), max > 0 caps it.
func (w *LatencyWindow) HedgeDelay(q, min, max float64) float64 {
	d := w.Quantile(q)
	if d < min {
		d = min
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
