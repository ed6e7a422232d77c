package par

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// TestMatVecBatchBitIdentical pins the batched kernel's guarantee: every
// per-sample output is bit-identical to the scalar reference and to the
// single-sample tiled kernel, at every worker count, for batch sizes that
// are and are not multiples of BatchSpan: 16 is one full block, which runs
// the 6+6+4 accumulator chains, and 17 and 33 split into blocks with a
// short tail.
func TestMatVecBatchBitIdentical(t *testing.T) {
	defer SetWorkers(0)
	rng := rngutil.New(99)
	shapes := [][2]int{{1, 1}, {3, 5}, {64, 64}, {65, 63}, {128, 200}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		m := randomMatrix(rows, cols, rng)
		for _, ns := range []int{1, 2, 3, 4, 5, 8, 13, 16, 17, 33} {
			xs := make([]tensor.Vector, ns)
			want := make([]tensor.Vector, ns)
			for s := range xs {
				xs[s] = randomVector(cols, rng, 7)
				want[s] = m.MatVec(xs[s])
			}
			for _, w := range []int{1, 2, 8} {
				SetWorkers(w)
				got := MatVecBatch(m, xs)
				for s := range want {
					for i := range want[s] {
						if math.Float64bits(got[s][i]) != math.Float64bits(want[s][i]) {
							t.Fatalf("%dx%d ns=%d workers=%d: sample %d out[%d] = %x, want %x",
								rows, cols, ns, w, s, i,
								math.Float64bits(got[s][i]), math.Float64bits(want[s][i]))
						}
					}
				}
			}
		}
	}
}

// TestBatchBoundsPartition pins the sample-block decomposition the same way
// TestBoundsPartition pins the tile grid.
func TestBatchBoundsPartition(t *testing.T) {
	for _, ns := range []int{0, 1, 3, 4, 5, 8, 9, 15, 16, 17, 33, 100} {
		blocks := batchBlocks(ns)
		covered, prevHi := 0, 0
		for b := 0; b < blocks; b++ {
			lo, hi := batchBounds(b, ns)
			if lo != prevHi || hi <= lo || hi > ns {
				t.Fatalf("ns=%d block %d has bounds [%d,%d), prev end %d", ns, b, lo, hi, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != ns {
			t.Fatalf("ns=%d blocks cover %d samples", ns, covered)
		}
	}
}

func TestMatVecBatchShapePanics(t *testing.T) {
	m := tensor.NewMatrix(4, 3)
	for name, fn := range map[string]func(){
		"input-short": func() { MatVecBatch(m, []tensor.Vector{make(tensor.Vector, 2)}) },
		"output-count": func() {
			MatVecBatchInto(m, []tensor.Vector{make(tensor.Vector, 3)}, nil)
		},
		"output-short": func() {
			MatVecBatchInto(m, []tensor.Vector{make(tensor.Vector, 3)}, []tensor.Vector{make(tensor.Vector, 2)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPoolReusesJobs hammers Run/RunChunks from concurrent goroutines to
// exercise job recycling and worker spawning under contention (most useful
// under -race, where stale-job bugs in the pool would surface as races on
// recycled descriptors).
func TestPoolReusesJobs(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var sink [257]float64
			for it := 0; it < 200; it++ {
				Run(9, func(ti int) { sink[ti] += 1 })
				RunChunks(257, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sink[i] += 1
					}
				})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
