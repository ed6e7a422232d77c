package xmann

import (
	"math"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/perfmodel"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func randomMemory(rows, cols int, seed uint64) *tensor.Matrix {
	rng := rngutil.New(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Uniform(0.05, 0.9) // non-negative, bounded
	}
	return m
}

func TestTCPTDotProducts(t *testing.T) {
	mem := randomMemory(8, 6, 1)
	tile := newTCPT(8, 6, rngutil.New(2))
	tile.Program(mem)
	key := tensor.Vector{0.3, -0.2, 0.5, 0.1, -0.4, 0.2}
	dots := make(tensor.Vector, 8)
	tile.DotProductsInto(key, dots)
	w := tile.Array().Weights()
	for i := 0; i < 8; i++ {
		want := tensor.Dot(w.Row(i), key)
		if math.Abs(dots[i]-want) > 1e-9 {
			t.Fatalf("dot %d: %v vs %v", i, dots[i], want)
		}
	}
}

func TestTCPTL1NormsViaOnesVector(t *testing.T) {
	mem := randomMemory(5, 7, 3)
	tile := newTCPT(5, 7, rngutil.New(4))
	tile.Program(mem)
	norms := tile.L1Norms()
	w := tile.Array().Weights()
	for i := 0; i < 5; i++ {
		want := w.Row(i).Norm1() // non-negative: row sum == L1 norm
		if math.Abs(norms[i]-want) > 1e-9 {
			t.Fatalf("norm %d: %v vs %v", i, norms[i], want)
		}
	}
}

func TestTCPTSoftReadTransposed(t *testing.T) {
	mem := randomMemory(6, 4, 5)
	tile := newTCPT(6, 4, rngutil.New(6))
	tile.Program(mem)
	attn := tensor.Vector{0.1, 0.3, 0.05, 0.25, 0.2, 0.1}
	r := make(tensor.Vector, 4)
	tile.SoftReadInto(attn, r)
	want := tile.Array().Weights().MatVecT(attn)
	for j := range r {
		if math.Abs(r[j]-want[j]) > 1e-9 {
			t.Fatalf("soft read %d: %v vs %v", j, r[j], want[j])
		}
	}
}

func TestTCPTSoftWriteRankOne(t *testing.T) {
	mem := randomMemory(4, 4, 7)
	tile := newTCPT(4, 4, rngutil.New(8))
	tile.Program(mem)
	before := tile.Array().Weights()
	w := tensor.Vector{0.5, 0, 0, 0.25}
	add := tensor.Vector{0.1, 0, 0.2, 0}
	tile.SoftWrite(w, add)
	after := tile.Array().Weights()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := before.At(i, j) + w[i]*add[j]
			// Stochastic pulses: expect within a few device steps.
			if math.Abs(after.At(i, j)-want) > 0.05 {
				t.Fatalf("soft write (%d,%d): %v vs %v", i, j, after.At(i, j), want)
			}
		}
	}
}

func TestTCPTRejectsNegativeMemory(t *testing.T) {
	tile := newTCPT(2, 2, rngutil.New(9))
	m := tensor.NewMatrix(2, 2)
	m.Set(0, 0, -0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tile.Program(m)
}

func TestDistributedMemoryMatchesReference(t *testing.T) {
	mem := randomMemory(20, 8, 11) // 3 tiles at tileRows=8
	dm := NewDistributedMemory(mem, 8, rngutil.New(12))
	if len(dm.Tiles) != 3 {
		t.Fatalf("tile count = %d", len(dm.Tiles))
	}
	key := tensor.Vector{0.2, 0.4, -0.1, 0.3, 0.15, -0.2, 0.5, 0.1}
	got := dm.Similarity(key, 5)
	want := ReferenceSimilarity(mem, key, 5)
	if math.Abs(got.Sum()-1) > 1e-9 {
		t.Fatal("similarity must be a distribution")
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-3 {
			t.Fatalf("similarity %d: %v vs %v", i, got[i], want[i])
		}
	}
	// Soft read across tiles must equal the reference wᵀM.
	r := dm.SoftRead(got)
	wantR := mem.MatVecT(want)
	for j := range r {
		if math.Abs(r[j]-wantR[j]) > 1e-2 {
			t.Fatalf("distributed soft read %d: %v vs %v", j, r[j], wantR[j])
		}
	}
}

func TestDistributedSoftWrite(t *testing.T) {
	mem := randomMemory(10, 4, 13)
	dm := NewDistributedMemory(mem, 4, rngutil.New(14))
	w := tensor.NewVector(10)
	w[7] = 0.5
	before := dm.Tiles[1].Array().Weights().At(3, 2) // global row 7 lives in tile 1 row 3
	dm.SoftWrite(w, tensor.Vector{0, 0, 0.3, 0})
	after := dm.Tiles[1].Array().Weights().At(3, 2)
	if math.Abs((after-before)-0.15) > 0.03 {
		t.Fatalf("distributed write delta %v, want 0.15", after-before)
	}
}

func TestTileGridGeometry(t *testing.T) {
	a := New(DefaultParams())
	rt, ct := a.tiles(1000, 300)
	if rt != 4 || ct != 2 {
		t.Fatalf("tiles(1000,300) = %d,%d", rt, ct)
	}
	rt, ct = a.tiles(1, 1)
	if rt != 1 || ct != 1 {
		t.Fatalf("tiles(1,1) = %d,%d", rt, ct)
	}
}

func TestCostMonotonicInMemorySize(t *testing.T) {
	a := New(DefaultParams())
	small := a.SimilarityCost(4096, 64)
	big := a.SimilarityCost(1<<20, 64)
	if big.Energy <= small.Energy || big.Latency <= small.Latency {
		t.Fatal("bigger memory must cost more")
	}
	sr := a.SoftReadCost(4096, 64)
	if sr.Energy <= 0 || sr.Latency <= 0 {
		t.Fatal("soft read cost must be positive")
	}
	sw := a.SoftWriteCost(4096, 64)
	if sw.Energy <= 0 || sw.Latency <= 0 {
		t.Fatal("soft write cost must be positive")
	}
}

func TestSoftWriteCheaperThanSimilarity(t *testing.T) {
	// The parallel rank-1 update needs no ADC scan: it should be the
	// cheapest memory op (the whole point of in-place updates).
	a := New(DefaultParams())
	if a.SoftWriteCost(65536, 128).Latency >= a.SimilarityCost(65536, 128).Latency {
		t.Fatal("soft write should be faster than similarity")
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 5 {
		t.Fatalf("suite size %d", len(suite))
	}
	var prevBytes int64
	for _, w := range suite {
		if w.MemoryBytes() <= prevBytes {
			t.Fatal("suite should have increasing memory capacities")
		}
		prevBytes = w.MemoryBytes()
		if w.Steps <= 0 || w.SimsPerStep <= 0 {
			t.Fatalf("workload %s malformed", w.Name)
		}
	}
	// Diverse capacities: two orders of magnitude.
	if suite[len(suite)-1].MemoryBytes() < 100*suite[0].MemoryBytes() {
		t.Fatal("suite should span diverse memory capacities")
	}
}

// T1: the suite-level speedup and energy-reduction ratios land in the
// paper's reported bands (§III-B: 23.7×–45.7× and 75.1×–267.1×).
func TestT1SuiteRatiosInBand(t *testing.T) {
	for _, c := range Compare(Suite(), DefaultParams(), perfmodel.DefaultGPU()) {
		if c.Speedup < 20 || c.Speedup > 50 {
			t.Errorf("%s: speedup %.1fx outside the 23.7–45.7x band", c.Workload.Name, c.Speedup)
		}
		if c.EnergyRatio < 75 || c.EnergyRatio > 280 {
			t.Errorf("%s: energy ratio %.1fx outside the 75.1–267.1x band", c.Workload.Name, c.EnergyRatio)
		}
	}
}

func TestGPUCostDominatedByMemoryTraffic(t *testing.T) {
	g := perfmodel.DefaultGPU()
	w := Suite()[4] // bigmem-qa
	c := GPUInferenceCost(w, g)
	// Pure streaming time of all per-step scans is a lower bound.
	scans := float64(w.Steps) * float64(w.SimsPerStep+w.ReadsPerStep+2*w.WritesPerStep)
	lower := scans * float64(w.MemoryBytes()) / g.MemBW
	if c.Latency < lower {
		t.Fatalf("GPU latency %v below streaming bound %v", c.Latency, lower)
	}
}

func TestMoreParallelTilesFaster(t *testing.T) {
	p := DefaultParams()
	slow := New(p).InferenceCost(Suite()[4])
	p.MaxParallelTiles *= 8
	fast := New(p).InferenceCost(Suite()[4])
	if fast.Latency >= slow.Latency {
		t.Fatal("raising tile parallelism must reduce latency")
	}
	if math.Abs(fast.Energy-slow.Energy)/slow.Energy > 1e-9 {
		t.Fatal("tile parallelism must not change energy")
	}
}

// newTCPT builds an ideal-device tile: functional verification focuses on
// the dataflow, device non-idealities are the domain of package crossbar.
func newTCPT(rows, cols int, rng *rngutil.Source) *TCPT {
	return NewTCPTWith(rows, cols, crossbar.Ideal(), crossbar.DefaultConfig(), rng)
}
