//go:build !amd64

package par

import "repro/internal/tensor"

// Off amd64 the Go loops are the only kernels.

func forwardLeaf(w []float64, cols int, x, y tensor.Vector, lo, hi int) int { return lo }

func forwardBatchLeaf(w []float64, cols int, xs, ys []tensor.Vector, lo, hi int) int { return 0 }

func axpyRows4(y, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64) {
	axpyRows4Go(y, r0, r1, r2, r3, x0, x1, x2, x3)
}

func axpyRow(y, r []float64, x float64) { axpyRowGo(y, r, x) }
