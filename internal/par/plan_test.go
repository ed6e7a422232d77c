package par

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// TestPlanDefaults pins that the process boots under the historical
// geometry and that SetPlan normalizes unset fields back to it.
func TestPlanDefaults(t *testing.T) {
	if got := activePlan(); got != DefaultPlan() {
		t.Fatalf("boot plan = %+v, want %+v", got, DefaultPlan())
	}
	defer SetPlan(DefaultPlan())
	SetPlan(Plan{})
	if got := activePlan(); got != DefaultPlan() {
		t.Fatalf("SetPlan(zero) = %+v, want defaults %+v", got, DefaultPlan())
	}
	SetPlan(Plan{TileSpan: -3, BatchSpan: 7})
	if got := (Plan{TileSpan: DefaultTileSpan, BatchSpan: 7}); activePlan() != got {
		t.Fatalf("SetPlan(partial) = %+v, want %+v", activePlan(), got)
	}
}

// TestPlanGridPartition checks Tiles/Bounds and BatchBlocks/BatchBounds
// still tile their ranges exactly under non-default spans.
func TestPlanGridPartition(t *testing.T) {
	defer SetPlan(DefaultPlan())
	for _, span := range []int{1, 16, 48, 200} {
		SetPlan(Plan{TileSpan: span, BatchSpan: span})
		for _, n := range []int{0, 1, span - 1, span, span + 1, 3*span + 2} {
			if n < 0 {
				continue
			}
			covered, prevHi := 0, 0
			for ti := 0; ti < Tiles(n); ti++ {
				lo, hi := Bounds(ti, n)
				if lo != prevHi || hi <= lo || hi > n {
					t.Fatalf("span=%d n=%d tile %d bounds [%d,%d), prev end %d", span, n, ti, lo, hi, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("span=%d n=%d tiles cover %d", span, n, covered)
			}
		}
	}
}

// TestPlanInvariantMVM pins that the MVM kernels are plan-invariant: every
// output element accumulates in strictly ascending index order with a
// single accumulator no matter where the tile and sample-block boundaries
// fall, so moving the plan must not move a single bit of the result.
func TestPlanInvariantMVM(t *testing.T) {
	defer SetPlan(DefaultPlan())
	defer SetWorkers(0)
	rng := rngutil.New(1234)
	m := randomMatrix(130, 75, rng)
	// 16 samples: one span-32 block runs the full 6+6+4 accumulator-chain
	// decomposition of the batch kernel, while span 1/2/4 cover the narrow
	// chains — every unroll variant must agree bit for bit.
	xs := make([]tensor.Vector, 16)
	for s := range xs {
		xs[s] = randomVector(75, rng, 5)
	}
	xt := randomVector(130, rng, 5)

	SetPlan(DefaultPlan())
	wantF := MatVec(m, xs[0])
	wantB := MatVecBatch(m, xs)
	wantT := MatVecT(m, xt)

	for _, p := range []Plan{{TileSpan: 1, BatchSpan: 1}, {TileSpan: 16, BatchSpan: 2}, {TileSpan: 512, BatchSpan: 32}} {
		for _, w := range []int{1, 4} {
			SetPlan(p)
			SetWorkers(w)
			gotF := MatVec(m, xs[0])
			gotB := MatVecBatch(m, xs)
			gotT := MatVecT(m, xt)
			for i := range wantF {
				if math.Float64bits(gotF[i]) != math.Float64bits(wantF[i]) {
					t.Fatalf("plan %+v workers=%d: forward[%d] differs", p, w, i)
				}
			}
			for s := range wantB {
				for i := range wantB[s] {
					if math.Float64bits(gotB[s][i]) != math.Float64bits(wantB[s][i]) {
						t.Fatalf("plan %+v workers=%d: batch sample %d out[%d] differs", p, w, s, i)
					}
				}
			}
			for j := range wantT {
				if math.Float64bits(gotT[j]) != math.Float64bits(wantT[j]) {
					t.Fatalf("plan %+v workers=%d: backward[%d] differs", p, w, j)
				}
			}
		}
	}
}

// activePlan reports the geometry the kernels are currently executing
// under.
func activePlan() Plan {
	v := plan.Load()
	return Plan{TileSpan: int(uint32(v >> 32)), BatchSpan: int(uint32(v))}
}
