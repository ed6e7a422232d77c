package par

import (
	"repro/internal/cpufeat"
	"repro/internal/tensor"
)

// useAVX2 selects the assembly leaves once, at start-up.
var useAVX2 = cpufeat.HasAVX2()

// forwardLeaf runs dotRows16AVX2 over the whole 16-row blocks of rows
// [lo, hi) and returns the first row it left to forwardRows. The leaf
// covers the even columns; an odd last column is added here, which is the
// same final add the Go loop makes.
func forwardLeaf(w []float64, cols int, x, y tensor.Vector, lo, hi int) int {
	if !useAVX2 {
		return lo
	}
	even := cols &^ 1
	i := lo
	for ; i+16 <= hi; i += 16 {
		dotRows16AVX2(w[i*cols:(i+16)*cols], cols, x[:even], y[i:i+16])
		if even < cols {
			xl := x[even]
			for k := i; k < i+16; k++ {
				y[k] += w[k*cols+even] * xl
			}
		}
	}
	return i
}

// forwardBatchLeaf runs dotRows8x4AVX2 over the samples in groups of four,
// each group over the whole 8-row blocks of rows [lo, hi), with an odd
// last column and the remainder rows added as forwardRowsBatch adds them;
// each sample past the last group takes the single-sample leaf through
// forwardTile. It returns the number of samples it covered: all of them
// with AVX2, none without.
func forwardBatchLeaf(w []float64, cols int, xs, ys []tensor.Vector, lo, hi int) int {
	if !useAVX2 {
		return 0
	}
	even := cols &^ 1
	s := 0
	for ; s+4 <= len(xs); s += 4 {
		xg, yg := xs[s:s+4:s+4], ys[s:s+4:s+4]
		for k := range xg {
			_, _ = xg[k][:cols], yg[k][lo:hi] // the leaf indexes these unchecked
		}
		i := lo
		for ; i+8 <= hi; i += 8 {
			dotRows8x4AVX2(w[i*cols:(i+8)*cols], cols, xg, yg, i, even)
			if even < cols {
				for k, x := range xg {
					xl, y := x[even], yg[k]
					for r := i; r < i+8; r++ {
						y[r] += w[r*cols+even] * xl
					}
				}
			}
		}
		forwardRowsBatch(w, cols, xg, yg, i, hi)
	}
	for ; s < len(xs); s++ {
		forwardTile(w, cols, xs[s][:cols], ys[s], lo, hi)
	}
	return s
}

func axpyRows4(y, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64) {
	if useAVX2 {
		axpyRows4AVX2(y, r0, r1, r2, r3, x0, x1, x2, x3)
		return
	}
	axpyRows4Go(y, r0, r1, r2, r3, x0, x1, x2, x3)
}

func axpyRow(y, r []float64, x float64) {
	if useAVX2 {
		axpyRowAVX2(y, r, x)
		return
	}
	axpyRowGo(y, r, x)
}

// dotRows16AVX2 sets y[k] = Σ_j w[k·cols+j]·x[j] for k < 16 and
// j < len(x), with len(x) even and at most cols, len(w) ≥ 16·cols and
// len(y) ≥ 16. Lanes run over rows, one accumulator per row, adding in
// j-ascending order.
//
//go:noescape
func dotRows16AVX2(w []float64, cols int, x, y []float64)

// dotRows8x4AVX2 sets ys[s][row+k] = Σ_j w[k·cols+j]·xs[s][j] for s < 4,
// k < 8 and j < n, with n even and at most cols, len(w) ≥ 8·cols, and
// every xs[s] at least n and every ys[s] at least row+8 long. Lanes run
// over rows, one accumulator per row and sample, adding in j-ascending
// order.
//
//go:noescape
func dotRows8x4AVX2(w []float64, cols int, xs, ys []tensor.Vector, row, n int)

// axpyRows4AVX2 is axpyRows4Go with lanes over columns; every r must be at
// least as long as y.
//
//go:noescape
func axpyRows4AVX2(y, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64)

// axpyRowAVX2 is axpyRowGo with lanes over columns; r must be at least as
// long as y.
//
//go:noescape
func axpyRowAVX2(y, r []float64, x float64)
