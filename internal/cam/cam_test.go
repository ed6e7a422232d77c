package cam

import (
	"testing"

	"repro/internal/perfmodel"
)

func TestTritString(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || X.String() != "x" {
		t.Fatal("Trit strings wrong")
	}
}

func TestRowBuilders(t *testing.T) {
	r := RowFromUint(0b101, 4)
	if r[0] != One || r[1] != Zero || r[2] != One || r[3] != Zero {
		t.Fatalf("RowFromUint = %v", r)
	}
}

func TestMismatchesSemantics(t *testing.T) {
	stored := Row{One, Zero, X, One}
	query := Row{One, One, Zero, X}
	// pos0 match, pos1 conflict, pos2 stored-X matches, pos3 query-X matches.
	if got := newKey(query).mismatches(stored); got != 1 {
		t.Fatalf("mismatches = %d, want 1", got)
	}
}

func TestMismatchesPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newKey(Row{One, Zero}).mismatches(Row{One})
}

func TestSearchExact(t *testing.T) {
	tc := New(3)
	tc.Store(Row{One, Zero, One})
	tc.Store(Row{One, X, One}) // matches 1x1
	tc.Store(Row{Zero, Zero, Zero})
	got := tc.SearchExact(Row{One, One, One})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("SearchExact = %v, want [1]", got)
	}
	got = tc.SearchExact(Row{One, Zero, One})
	if len(got) != 2 {
		t.Fatalf("SearchExact = %v, want rows 0 and 1", got)
	}
	if tc.Searches != 2 {
		t.Fatalf("search counter = %d", tc.Searches)
	}
}

func TestBestMatch(t *testing.T) {
	tc := New(4)
	tc.Store(RowFromUint(0b0000, 4))
	tc.Store(RowFromUint(0b0111, 4))
	tc.Store(RowFromUint(0b0110, 4))
	idx, m := tc.BestMatch(RowFromUint(0b0100, 4))
	if idx != 0 || m != 1 {
		t.Fatalf("BestMatch = (%d,%d), want (0,1) — first of the tied best rows", idx, m)
	}
	empty := New(4)
	if idx, m := empty.BestMatch(RowFromUint(0, 4)); idx != -1 || m != -1 {
		t.Fatal("empty BestMatch should be (-1,-1)")
	}
}

func TestMatchCounts(t *testing.T) {
	tc := New(2)
	tc.Store(Row{One, One})
	tc.Store(Row{Zero, Zero})
	counts := tc.MatchCounts(Row{One, One})
	if counts[0] != 0 || counts[1] != 2 {
		t.Fatalf("MatchCounts = %v", counts)
	}
}

func TestStoreWidthPanics(t *testing.T) {
	tc := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tc.Store(Row{One})
}

// The defining Gray property: consecutive codes differ in exactly one bit.
func TestGrayAdjacency(t *testing.T) {
	for v := uint64(0); v < 1024; v++ {
		x := GrayEncode(v) ^ GrayEncode(v+1)
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("gray(%d) and gray(%d) differ in != 1 bit", v, v+1)
		}
	}
}

func TestSearchCostScaling(t *testing.T) {
	e := Engine{Tech: CMOS16T(), Geo: DefaultGeometry()}
	small := e.SearchCost(512, 128)
	big := e.SearchCost(4096, 128)
	if big.Energy <= small.Energy {
		t.Fatal("more rows must cost more energy")
	}
	// Multi-bank searches run in parallel: latency grows only by the
	// combine tree, far less than proportionally.
	if big.Latency > 2*small.Latency {
		t.Fatalf("banked search latency should stay near-constant: %v vs %v", big.Latency, small.Latency)
	}
	if e.SearchCost(0, 128).Energy != 0 {
		t.Fatal("empty search should be free")
	}
}

func TestTransistors(t *testing.T) {
	e := Engine{Tech: FeFET2T(), Geo: DefaultGeometry()}
	if e.Transistors(512, 128) != 512*128*2 {
		t.Fatal("transistor count wrong")
	}
	c := Engine{Tech: CMOS16T(), Geo: DefaultGeometry()}
	if c.Transistors(512, 128) != 8*e.Transistors(512, 128) {
		t.Fatal("16T cell must be 8x the transistors of 2-FeFET")
	}
}

// C5 calibration: 16T CMOS TCAM vs GPU+DRAM memory search lands in the
// paper's band (≈24× energy, ≈2582× latency) for the canonical M=512,
// D=128 search.
func TestC5RatiosInBand(t *testing.T) {
	e := Engine{Tech: CMOS16T(), Geo: DefaultGeometry()}
	tcam := e.SearchCost(512, 128)
	gpu := GPUSearchBaseline(512, 128, gpuForTest())
	speedup := tcam.Speedup(gpu)
	eratio := tcam.EnergyRatio(gpu)
	if speedup < 1500 || speedup > 4000 {
		t.Fatalf("latency ratio %v outside band around 2582x", speedup)
	}
	if eratio < 15 || eratio > 40 {
		t.Fatalf("energy ratio %v outside band around 24x", eratio)
	}
}

// C6 calibration: 2-FeFET vs 16T CMOS lands near 1.1× latency and 2.4×
// energy.
func TestC6RatiosInBand(t *testing.T) {
	cm := Engine{Tech: CMOS16T(), Geo: DefaultGeometry()}.SearchCost(512, 128)
	fe := Engine{Tech: FeFET2T(), Geo: DefaultGeometry()}.SearchCost(512, 128)
	lat := cm.Latency / fe.Latency
	en := cm.Energy / fe.Energy
	if lat < 1.05 || lat > 1.3 {
		t.Fatalf("FeFET latency gain %v outside band around 1.1x", lat)
	}
	if en < 2.0 || en > 3.0 {
		t.Fatalf("FeFET energy gain %v outside band around 2.4x", en)
	}
}

func gpuForTest() perfmodel.GPU { return perfmodel.DefaultGPU() }

func TestKNearestModesAgree(t *testing.T) {
	tc := New(8)
	vals := []uint64{0b00000000, 0b00000001, 0b00000011, 0b11111111, 0b00001111}
	for _, v := range vals {
		tc.Store(RowFromUint(v, 8))
	}
	q := RowFromUint(0b00000000, 8)
	before := tc.Searches
	bin := tc.KNearestBinary(q, 3)
	binSearches := tc.Searches - before
	before = tc.Searches
	deg := tc.KNearestDegree(q, 3)
	degSearches := tc.Searches - before

	if len(bin) != 3 || len(deg) != 3 {
		t.Fatalf("KNN sizes: %v %v", bin, deg)
	}
	for i := range bin {
		if bin[i] != deg[i] {
			t.Fatalf("modes disagree: %v vs %v", bin, deg)
		}
	}
	// Expected order: exact, 1-bit, 2-bit neighbours.
	if bin[0] != 0 || bin[1] != 1 || bin[2] != 2 {
		t.Fatalf("KNN order wrong: %v", bin)
	}
	// The §IV-B.1 cost asymmetry: k searches vs a single one.
	if binSearches != 3 {
		t.Fatalf("binary-comparator mode used %d searches, want 3", binSearches)
	}
	if degSearches != 1 {
		t.Fatalf("degree-of-match mode used %d searches, want 1", degSearches)
	}
}

func TestKNearestClamped(t *testing.T) {
	tc := New(4)
	tc.Store(RowFromUint(0, 4))
	if got := tc.KNearestBinary(RowFromUint(0, 4), 5); len(got) != 1 {
		t.Fatalf("k beyond rows should clamp: %v", got)
	}
	if got := tc.KNearestDegree(RowFromUint(0, 4), 5); len(got) != 1 {
		t.Fatalf("k beyond rows should clamp: %v", got)
	}
}

// A negative k retrieves nothing, as k = 0 does, instead of panicking on
// a negative slice capacity.
func TestKNearestNegativeK(t *testing.T) {
	tc := New(4)
	tc.Store(RowFromUint(0, 4))
	for _, k := range []int{-1, -7} {
		if got := tc.KNearestBinary(RowFromUint(0, 4), k); len(got) != 0 {
			t.Fatalf("KNearestBinary(k=%d) = %v, want none", k, got)
		}
		if got := tc.KNearestDegree(RowFromUint(0, 4), k); len(got) != 0 {
			t.Fatalf("KNearestDegree(k=%d) = %v, want none", k, got)
		}
	}
}
