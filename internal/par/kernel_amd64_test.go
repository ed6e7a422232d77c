package par

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// The AVX2 leaves against their Go twins, called directly so that both run
// on every amd64 host with AVX2, whatever the dispatch chose.

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("host has no AVX2")
	}
}

// specialValue draws from a mix of normals and the IEEE corner cases the
// leaves must round exactly like scalar code: signed zeros, subnormals,
// infinities, and magnitudes whose products overflow or underflow.
func specialValue(rng *rngutil.Source) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return 5e-324 * float64(1+rng.Intn(1000))
	case 3:
		return -2.5e-310
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return 1e300
	case 7:
		return -1e-300
	default:
		return rng.NormFloat64()
	}
}

func fill(v []float64, rng *rngutil.Source, special bool) {
	for i := range v {
		if special {
			v[i] = specialValue(rng)
		} else {
			v[i] = rng.NormFloat64()
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%x), want %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestDotRows16MatchesForwardRows(t *testing.T) {
	requireAVX2(t)
	rng := rngutil.New(15)
	for _, special := range []bool{false, true} {
		for cols := 0; cols <= 41; cols++ {
			w := make([]float64, 16*cols)
			x := make([]float64, cols)
			fill(w, rng, special)
			fill(x, rng, special)
			even := cols &^ 1
			got := make([]float64, 16)
			dotRows16AVX2(w, cols, x[:even], got)
			want := make([]float64, 16)
			forwardRows(w, cols, x[:even], want, 0, 16)
			sameBits(t, fmt.Sprintf("special=%v cols=%d", special, cols), got, want)
		}
	}
}

// TestForwardTileMatchesForwardRows runs the dispatching tile kernel, leaf
// blocks plus Go remainder and odd column, against the Go loop alone over
// row ranges that are and are not multiples of 16.
func TestForwardTileMatchesForwardRows(t *testing.T) {
	requireAVX2(t)
	rng := rngutil.New(16)
	for trial := 0; trial < 200; trial++ {
		special := trial%2 == 1
		rows, cols := 1+rng.Intn(70), rng.Intn(70)
		w := make([]float64, rows*cols)
		x := make([]float64, cols)
		fill(w, rng, special)
		fill(x, rng, special)
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo+1)
		got := make([]float64, rows)
		want := make([]float64, rows)
		forwardTile(w, cols, x, got, lo, hi)
		forwardRows(w, cols, x, want, lo, hi)
		sameBits(t, fmt.Sprintf("%dx%d [%d,%d) special=%v", rows, cols, lo, hi, special), got, want)
	}
}

// batchInputs returns ns random input vectors of length cols and ns
// output vectors of length rows.
func batchInputs(rng *rngutil.Source, ns, rows, cols int, special bool) (xs, ys []tensor.Vector) {
	xs, ys = make([]tensor.Vector, ns), make([]tensor.Vector, ns)
	for s := range xs {
		xs[s] = make(tensor.Vector, cols)
		fill(xs[s], rng, special)
		ys[s] = make(tensor.Vector, rows)
	}
	return xs, ys
}

// TestDotRows8x4MatchesForwardRowsBatch checks the leaf, which covers the
// even columns and writes at a row offset, against the Go loop over the
// same columns.
func TestDotRows8x4MatchesForwardRowsBatch(t *testing.T) {
	requireAVX2(t)
	rng := rngutil.New(19)
	for _, special := range []bool{false, true} {
		for cols := 0; cols <= 41; cols++ {
			even := cols &^ 1
			w := make([]float64, 8*cols)
			fill(w, rng, special)
			wEven := make([]float64, 0, 8*even)
			for r := 0; r < 8; r++ {
				wEven = append(wEven, w[r*cols:r*cols+even]...)
			}
			xs, got := batchInputs(rng, 4, 11, cols, special)
			_, want := batchInputs(rng, 4, 8, even, special)
			dotRows8x4AVX2(w, cols, xs, got, 3, even)
			forwardRowsBatch(wEven, even, xs, want, 0, 8)
			for s := range got {
				sameBits(t, fmt.Sprintf("special=%v cols=%d sample=%d", special, cols, s), got[s][3:], want[s])
			}
		}
	}
}

// TestForwardTileBatchMatchesForwardRowsBatch runs the dispatching batched
// kernel, leaf groups plus Go remainder rows, odd column and left-over
// samples, against the Go loop alone over sample counts that are and are
// not multiples of four and row ranges that are and are not multiples of 8.
func TestForwardTileBatchMatchesForwardRowsBatch(t *testing.T) {
	requireAVX2(t)
	rng := rngutil.New(20)
	for trial := 0; trial < 200; trial++ {
		special := trial%2 == 1
		rows, cols, ns := 1+rng.Intn(40), rng.Intn(40), rng.Intn(11)
		w := make([]float64, rows*cols)
		fill(w, rng, special)
		xs, got := batchInputs(rng, ns, rows, cols, special)
		_, want := batchInputs(rng, ns, rows, cols, special)
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo+1)
		forwardTileBatch(w, cols, xs, got, lo, hi)
		forwardRowsBatch(w, cols, xs, want, lo, hi)
		for s := range got {
			sameBits(t, fmt.Sprintf("%dx%d [%d,%d) sample %d of %d special=%v",
				rows, cols, lo, hi, s, ns, special), got[s], want[s])
		}
	}
}

func TestAxpyLeavesMatchGoTwins(t *testing.T) {
	requireAVX2(t)
	rng := rngutil.New(17)
	for trial := 0; trial < 300; trial++ {
		special := trial%2 == 1
		n := rng.Intn(40)
		y0 := make([]float64, n)
		fill(y0, rng, special)
		var r [4][]float64
		var xs [4]float64
		for k := range r {
			r[k] = make([]float64, n+rng.Intn(3)) // the leaf reads len(y)
			fill(r[k], rng, special)
			xs[k] = specialValue(rng)
		}
		got := append([]float64(nil), y0...)
		want := append([]float64(nil), y0...)
		axpyRows4AVX2(got, r[0], r[1], r[2], r[3], xs[0], xs[1], xs[2], xs[3])
		axpyRows4Go(want, r[0], r[1], r[2], r[3], xs[0], xs[1], xs[2], xs[3])
		sameBits(t, fmt.Sprintf("axpyRows4 n=%d special=%v", n, special), got, want)

		copy(got, y0)
		copy(want, y0)
		axpyRowAVX2(got, r[0], xs[0])
		axpyRowGo(want, r[0], xs[0])
		sameBits(t, fmt.Sprintf("axpyRow n=%d special=%v", n, special), got, want)
	}
}

// TestBackwardTileChunks cuts the columns into 1 to 5 contiguous chunks
// the way RunChunks cuts them across workers (chunk boundaries at
// c·cols/p, here at any column rather than only on wide arrays) and checks
// every chunk, zero-skip rows included, against the scalar reference.
func TestBackwardTileChunks(t *testing.T) {
	requireAVX2(t)
	rng := rngutil.New(18)
	for trial := 0; trial < 60; trial++ {
		special := trial%2 == 1
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(60)
		m := tensor.NewMatrix(rows, cols)
		fill(m.Data, rng, special)
		x := make(tensor.Vector, rows)
		fill(x, rng, special)
		for i := range x {
			if rng.Intn(5) == 0 {
				x[i] = 0 // the reference skips these rows
			}
		}
		want := m.MatVecT(x)
		for workers := 1; workers <= 5; workers++ {
			p := min(workers, cols)
			got := make(tensor.Vector, cols)
			for c := 0; c < p; c++ {
				lo, hi := c*cols/p, (c+1)*cols/p
				backwardTile(m.Data, rows, cols, x, got, lo, hi)
			}
			sameBits(t, fmt.Sprintf("%dx%d chunks=%d special=%v", rows, cols, p, special), got, want)
		}
	}
}

func TestLeavesAllocFree(t *testing.T) {
	requireAVX2(t)
	w := make([]float64, 16*33)
	x := make([]float64, 33)
	y := make([]float64, 33)
	requireAllocs(t, "dotRows16AVX2", 0, func() { dotRows16AVX2(w, 33, x[:32], y) })
	xs := []tensor.Vector{x, x, x, x}
	ys := []tensor.Vector{y, y, y, y}
	requireAllocs(t, "dotRows8x4AVX2", 0, func() { dotRows8x4AVX2(w, 33, xs, ys, 0, 32) })
	requireAllocs(t, "forwardTileBatch", 0, func() { forwardTileBatch(w, 33, xs, ys, 0, 16) })
	requireAllocs(t, "axpyRows4AVX2", 0, func() { axpyRows4AVX2(y, x, x, x, x, 1, 2, 3, 4) })
	requireAllocs(t, "axpyRowAVX2", 0, func() { axpyRowAVX2(y, x, 1) })
}

var leafSizes = []int{128, 512, 1024}

// BenchmarkForwardLeaf times one n×(n+1) forward, 16-row leaf blocks
// against the Go loop.
func BenchmarkForwardLeaf(b *testing.B) {
	for _, n := range leafSizes {
		cols := n + 1
		rng := rngutil.New(1)
		w := make([]float64, n*cols)
		x := make([]float64, cols)
		y := make([]float64, n)
		fill(w, rng, false)
		fill(x, rng, false)
		b.Run(fmt.Sprintf("avx2/%d", n), func(b *testing.B) {
			requireAVX2(b)
			for i := 0; i < b.N; i++ {
				forwardTile(w, cols, x, y, 0, n)
			}
		})
		b.Run(fmt.Sprintf("go/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				forwardRows(w, cols, x, y, 0, n)
			}
		})
	}
}

// BenchmarkForwardBatchLeaf times one n×(n+1) forward of four samples,
// leaf groups against the Go loop.
func BenchmarkForwardBatchLeaf(b *testing.B) {
	for _, n := range leafSizes {
		cols := n + 1
		rng := rngutil.New(1)
		w := make([]float64, n*cols)
		fill(w, rng, false)
		xs, ys := batchInputs(rng, 4, n, cols, false)
		b.Run(fmt.Sprintf("avx2/%d", n), func(b *testing.B) {
			requireAVX2(b)
			for i := 0; i < b.N; i++ {
				forwardTileBatch(w, cols, xs, ys, 0, n)
			}
		})
		b.Run(fmt.Sprintf("go/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				forwardRowsBatch(w, cols, xs, ys, 0, n)
			}
		})
	}
}

// BenchmarkBackwardLeaf times one n×(n+1) backward through the four-row
// leaf against its Go twin.
func BenchmarkBackwardLeaf(b *testing.B) {
	for _, n := range leafSizes {
		cols := n + 1
		rng := rngutil.New(1)
		w := make([]float64, n*cols)
		x := make([]float64, n)
		y := make([]float64, cols)
		fill(w, rng, false)
		fill(x, rng, false)
		for _, leaf := range []struct {
			name string
			fn   func(y, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64)
		}{{"avx2", axpyRows4AVX2}, {"go", axpyRows4Go}} {
			b.Run(fmt.Sprintf("%s/%d", leaf.name, n), func(b *testing.B) {
				if leaf.name == "avx2" {
					requireAVX2(b)
				}
				for i := 0; i < b.N; i++ {
					for r := 0; r+4 <= n; r += 4 {
						leaf.fn(y, w[r*cols:(r+1)*cols], w[(r+1)*cols:(r+2)*cols],
							w[(r+2)*cols:(r+3)*cols], w[(r+3)*cols:(r+4)*cols],
							x[r], x[r+1], x[r+2], x[r+3])
					}
				}
			})
		}
	}
}
