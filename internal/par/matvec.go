package par

import (
	"fmt"

	"repro/internal/tensor"
)

// The MVM kernels below are the tile engine's compute core. Each output
// element is accumulated in strictly ascending index order with a single
// accumulator, exactly like the scalar reference loops in package tensor —
// so the tiled kernels are bit-identical to tensor.Matrix.MatVec/MatVecT
// at every worker count. The speed comes from processing several rows per
// pass (one load of x feeds that many dot products, cutting the traffic on
// the input vector and giving the CPU as many independent dependency
// chains), and from tiles executing in parallel across workers.
//
// On amd64 hosts with AVX2 the innermost loops of forwardTile,
// forwardTileBatch and backwardTile run as assembly leaves
// (kernel_amd64.s). SIMD lanes span independent output elements, never one
// element's sum, and every step is a separate multiply and add (no FMA),
// so each element sees the same roundings in the same order as in the Go
// loops, which stay as the fallback and as the leaves' test oracle.

// forwardTile computes y[i] = Σ_j w[i,j]·x[j] for rows lo ≤ i < hi. Where
// the host has a SIMD leaf (forwardLeaf), it takes whole 16-row blocks and
// forwardRows finishes the remainder; elsewhere forwardRows does it all.
func forwardTile(w []float64, cols int, x, y tensor.Vector, lo, hi int) {
	forwardRows(w, cols, x, y, forwardLeaf(w, cols, x, y, lo, hi), hi)
}

// forwardRows is forwardTile's Go loop, and the oracle its SIMD leaf is
// tested against. Six rows per pass is the measured sweet spot for the
// scalar-code generator: six accumulator chains hide the FP add latency
// without spilling the row base pointers to the stack (eight rows does
// spill, and loses the gain).
func forwardRows(w []float64, cols int, x, y tensor.Vector, lo, hi int) {
	i := lo
	for ; i+6 <= hi; i += 6 {
		r0 := w[i*cols : (i+1)*cols : (i+1)*cols]
		r1 := w[(i+1)*cols : (i+2)*cols : (i+2)*cols]
		r2 := w[(i+2)*cols : (i+3)*cols : (i+3)*cols]
		r3 := w[(i+3)*cols : (i+4)*cols : (i+4)*cols]
		r4 := w[(i+4)*cols : (i+5)*cols : (i+5)*cols]
		r5 := w[(i+5)*cols : (i+6)*cols : (i+6)*cols]
		var s0, s1, s2, s3, s4, s5 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
			s4 += r4[j] * xj
			s5 += r5[j] * xj
		}
		y[i], y[i+1], y[i+2] = s0, s1, s2
		y[i+3], y[i+4], y[i+5] = s3, s4, s5
	}
	for ; i+4 <= hi; i += 4 {
		r0 := w[i*cols : (i+1)*cols : (i+1)*cols]
		r1 := w[(i+1)*cols : (i+2)*cols : (i+2)*cols]
		r2 := w[(i+2)*cols : (i+3)*cols : (i+3)*cols]
		r3 := w[(i+3)*cols : (i+4)*cols : (i+4)*cols]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		row := w[i*cols : (i+1)*cols : (i+1)*cols]
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
}

// backwardTile accumulates y[j] += Σ_i w[i,j]·x[i] for columns lo ≤ j < hi,
// visiting i in ascending order per output element and skipping x[i] == 0
// exactly like the scalar reference (the skip is observable: 0·w can raise
// -0.0 or NaN artifacts the reference never produces). Each pass streams
// four contiguous row segments into the contiguous output segment.
func backwardTile(w []float64, rows, cols int, x, y tensor.Vector, lo, hi int) {
	y = y[lo:hi]
	i := 0
	for ; i+4 <= rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
			axpyRows4(y, w[i*cols+lo:i*cols+hi], w[(i+1)*cols+lo:(i+1)*cols+hi],
				w[(i+2)*cols+lo:(i+2)*cols+hi], w[(i+3)*cols+lo:(i+3)*cols+hi],
				x0, x1, x2, x3)
			continue
		}
		// A lane is zero: stream the four rows one at a time with the
		// reference's per-row skip.
		for k := i; k < i+4; k++ {
			if x[k] != 0 {
				axpyRow(y, w[k*cols+lo:k*cols+hi], x[k])
			}
		}
	}
	for ; i < rows; i++ {
		if x[i] != 0 {
			axpyRow(y, w[i*cols+lo:i*cols+hi], x[i])
		}
	}
}

// axpyRows4Go computes y[j] = (((y[j] + r0[j]·x0) + r1[j]·x1) + r2[j]·x2) +
// r3[j]·x3: one load of y[j] covers four rows, and the adds stay sequential
// per output, the exact i-ascending order of the scalar reference. It is
// the Go twin of the SIMD leaf axpyRows4 dispatches to.
func axpyRows4Go(y, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64) {
	r0, r1, r2, r3 = r0[:len(y)], r1[:len(y)], r2[:len(y)], r3[:len(y)]
	for j, t := range y {
		t += r0[j] * x0
		t += r1[j] * x1
		t += r2[j] * x2
		t += r3[j] * x3
		y[j] = t
	}
}

// axpyRowGo computes y[j] += r[j]·x, the one-row twin of axpyRows4Go.
func axpyRowGo(y, r []float64, x float64) {
	r = r[:len(y)]
	for j := range y {
		y[j] += r[j] * x
	}
}

// forwardTileBatch computes ys[s][i] = Σ_j w[i,j]·xs[s][j] for rows
// lo ≤ i < hi across all samples of the block. Sample-blocking is the
// GEMM-style amortization: each weight row is streamed once per sample
// block instead of once per sample, dividing the matrix traffic that
// dominates wide batched MVMs. Every output element still accumulates in
// strictly ascending j with a single accumulator, so per-sample results are
// bit-identical to forwardTile and to the scalar reference. Where the host
// has a SIMD leaf (forwardBatchLeaf), it takes the samples, four at a time
// over 8-row blocks; elsewhere forwardRowsBatch does it all.
func forwardTileBatch(w []float64, cols int, xs, ys []tensor.Vector, lo, hi int) {
	s := forwardBatchLeaf(w, cols, xs, ys, lo, hi)
	forwardRowsBatch(w, cols, xs[s:], ys[s:], lo, hi)
}

// forwardRowsBatch is forwardTileBatch's Go loop, and the oracle its SIMD
// leaf is tested against.
func forwardRowsBatch(w []float64, cols int, xs, ys []tensor.Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := w[i*cols : (i+1)*cols : (i+1)*cols]
		s := 0
		// Six accumulator chains per weight pass — the same in-flight depth
		// (and register budget: six stream pointers, one shared pointer, six
		// accumulators) that forwardTile's six row chains use to cover FMA
		// latency. Four chains leave the kernel latency-bound; eight spill
		// registers and lose more than the extra chains buy.
		for ; s+6 <= len(xs); s += 6 {
			x0 := xs[s][:cols:cols]
			x1 := xs[s+1][:cols:cols]
			x2 := xs[s+2][:cols:cols]
			x3 := xs[s+3][:cols:cols]
			x4 := xs[s+4][:cols:cols]
			x5 := xs[s+5][:cols:cols]
			var a0, a1, a2, a3, a4, a5 float64
			for j, wj := range row {
				a0 += wj * x0[j]
				a1 += wj * x1[j]
				a2 += wj * x2[j]
				a3 += wj * x3[j]
				a4 += wj * x4[j]
				a5 += wj * x5[j]
			}
			ys[s][i], ys[s+1][i], ys[s+2][i] = a0, a1, a2
			ys[s+3][i], ys[s+4][i], ys[s+5][i] = a3, a4, a5
		}
		for ; s+4 <= len(xs); s += 4 {
			x0 := xs[s][:cols:cols]
			x1 := xs[s+1][:cols:cols]
			x2 := xs[s+2][:cols:cols]
			x3 := xs[s+3][:cols:cols]
			var a0, a1, a2, a3 float64
			for j, wj := range row {
				a0 += wj * x0[j]
				a1 += wj * x1[j]
				a2 += wj * x2[j]
				a3 += wj * x3[j]
			}
			ys[s][i], ys[s+1][i], ys[s+2][i], ys[s+3][i] = a0, a1, a2, a3
		}
		for ; s+2 <= len(xs); s += 2 {
			x0 := xs[s][:cols:cols]
			x1 := xs[s+1][:cols:cols]
			var a0, a1 float64
			for j, wj := range row {
				a0 += wj * x0[j]
				a1 += wj * x1[j]
			}
			ys[s][i], ys[s+1][i] = a0, a1
		}
		for ; s < len(xs); s++ {
			x0 := xs[s][:cols:cols]
			var a0 float64
			for j, wj := range row {
				a0 += wj * x0[j]
			}
			ys[s][i] = a0
		}
	}
}

// batchBlocks reports how many BatchSpan sample blocks cover ns samples.
func batchBlocks(ns int) int {
	if ns <= 0 {
		return 0
	}
	return (ns + BatchSpan - 1) / BatchSpan
}

// batchBounds reports the half-open sample range [lo, hi) of block b over
// ns samples.
func batchBounds(b, ns int) (lo, hi int) {
	lo = b * BatchSpan
	hi = lo + BatchSpan
	if hi > ns {
		hi = ns
	}
	return lo, hi
}

// MatVecBatchInto computes ys[s] = m·xs[s] for every sample, sharded into a
// (row-tile × sample-block) grid across the worker pool — true row×sample
// blocking rather than per-sample fan-out, so dispatch and weight-row
// traffic amortize over the batch. Each grid cell owns a disjoint
// (row-range × sample-range) region of the outputs, and per-sample results
// are bit-identical to MatVecInto at every worker count. Outputs must be
// preallocated by the caller (length m.Rows each); the kernel allocates
// nothing beyond its own closure.
func MatVecBatchInto(m *tensor.Matrix, xs, ys []tensor.Vector) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("par: MatVecBatch output count %d, want %d", len(ys), len(xs)))
	}
	for s, x := range xs {
		if len(x) != m.Cols {
			panic(fmt.Sprintf("par: MatVecBatch length mismatch: %d cols vs %d (sample %d)", m.Cols, len(x), s))
		}
		if len(ys[s]) != m.Rows {
			panic(fmt.Sprintf("par: MatVecBatch output length %d, want %d (sample %d)", len(ys[s]), m.Rows, s))
		}
	}
	rowTiles := Tiles(m.Rows)
	blocks := batchBlocks(len(xs))
	Run(rowTiles*blocks, func(g int) {
		b, t := g/rowTiles, g%rowTiles
		lo, hi := Bounds(t, m.Rows)
		s0, s1 := batchBounds(b, len(xs))
		forwardTileBatch(m.Data, m.Cols, xs[s0:s1], ys[s0:s1], lo, hi)
	})
}

// MatVecBatch computes ys[s] = m·xs[s], tile- and sample-blocked. See
// MatVecBatchInto.
func MatVecBatch(m *tensor.Matrix, xs []tensor.Vector) []tensor.Vector {
	ys := make([]tensor.Vector, len(xs))
	for s := range ys {
		ys[s] = make(tensor.Vector, m.Rows)
	}
	MatVecBatchInto(m, xs, ys)
	return ys
}

// MatVecInto computes y = m·x into y, sharded into TileSpan-row tiles
// across the worker pool. It is bit-identical to tensor.Matrix.MatVec at
// every worker count.
func MatVecInto(m *tensor.Matrix, x, y tensor.Vector) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("par: MatVec length mismatch: %d cols vs %d", m.Cols, len(x)))
	}
	if len(y) != m.Rows {
		panic(fmt.Sprintf("par: MatVec output length %d, want %d", len(y), m.Rows))
	}
	Run(Tiles(m.Rows), func(t int) {
		lo, hi := Bounds(t, m.Rows)
		forwardTile(m.Data, m.Cols, x, y, lo, hi)
	})
}

// MatVec computes y = m·x, tile-parallel. See MatVecInto.
func MatVec(m *tensor.Matrix, x tensor.Vector) tensor.Vector {
	y := make(tensor.Vector, m.Rows)
	MatVecInto(m, x, y)
	return y
}

// MatVecTInto computes y = mᵀ·x into y (which must be zeroed by the
// caller), sharded into one contiguous column chunk per worker. Each chunk
// owns a disjoint range of output columns and walks all rows, so no
// reduction across workers is needed, and each output element accumulates
// in the reference's i-ascending order regardless of where the chunk
// boundaries fall — bit-identical to tensor.Matrix.MatVecT at every worker
// count. Worker-wide chunks (RunChunks, not the fixed tile grid) keep each
// worker streaming wide strips of the row-major matrix.
func MatVecTInto(m *tensor.Matrix, x, y tensor.Vector) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("par: MatVecT length mismatch: %d rows vs %d", m.Rows, len(x)))
	}
	if len(y) != m.Cols {
		panic(fmt.Sprintf("par: MatVecT output length %d, want %d", len(y), m.Cols))
	}
	RunChunks(m.Cols, func(lo, hi int) {
		backwardTile(m.Data, m.Rows, m.Cols, x, y, lo, hi)
	})
}

// MatVecT computes y = mᵀ·x, tile-parallel. See MatVecTInto.
func MatVecT(m *tensor.Matrix, x tensor.Vector) tensor.Vector {
	y := make(tensor.Vector, m.Cols)
	MatVecTInto(m, x, y)
	return y
}
