package faults

import (
	"math"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// The remapped array must satisfy the network-facing Mat contract.
var _ nn.Mat = (*RemappedArray)(nil)

func idealArray(rows, cols int, seed uint64) *crossbar.Array {
	return crossbar.NewArray(rows, cols, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(seed))
}

func randomTarget(rows, cols int, scale float64, seed uint64) *tensor.Matrix {
	rng := rngutil.New(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Uniform(-scale, scale)
	}
	return m
}

// runCampaign drives one array through a fixed op sequence under an engine
// and returns the final weights and stats.
func runCampaign(seed uint64, plan Plan, ops int) (*tensor.Matrix, Stats) {
	a := idealArray(8, 8, seed)
	e := NewEngine(plan, rngutil.New(seed+1))
	e.Attach(a)
	x := make(tensor.Vector, 8)
	for i := range x {
		x[i] = 0.5
	}
	for op := 0; op < ops; op++ {
		a.Forward(x)
		a.Update(0.01, x, x)
	}
	return a.Weights(), e.Stats()
}

func TestEngineDeterministic(t *testing.T) {
	plan := Plan{StuckPerOp: 0.3, StuckValueStd: 0.4, ReadUpset: 0.1, UpsetMag: 0.2,
		WriteFail: 0.2, LineOpenPerOp: 0.05}
	w1, s1 := runCampaign(7, plan, 40)
	w2, s2 := runCampaign(7, plan, 40)
	if s1 != s2 {
		t.Fatalf("stats differ across identical campaigns: %+v vs %+v", s1, s2)
	}
	for i := range w1.Data {
		if w1.Data[i] != w2.Data[i] {
			t.Fatal("weights differ across identical campaigns")
		}
	}
}

func TestProgressiveStuckInjection(t *testing.T) {
	a := idealArray(16, 16, 11)
	e := NewEngine(Plan{StuckPerOp: 1, StuckValueStd: 0.5}, rngutil.New(12))
	e.Attach(a)
	before := a.StuckCount()
	x := make(tensor.Vector, 16)
	const ops = 50
	for op := 0; op < ops; op++ {
		a.Forward(x)
	}
	st := e.Stats()
	if st.Ops != ops {
		t.Fatalf("ops = %d, want %d", st.Ops, ops)
	}
	if st.StuckInjected != ops {
		t.Fatalf("expected one failure per op on a mostly-healthy array, got %d", st.StuckInjected)
	}
	if got := a.StuckCount() - before; int64(got) != st.StuckInjected {
		t.Fatalf("array gained %d stuck devices, engine claims %d", got, st.StuckInjected)
	}
}

func TestReadUpsetsPerturbOutputs(t *testing.T) {
	clean := idealArray(4, 4, 21)
	noisy := idealArray(4, 4, 21)
	e := NewEngine(Plan{ReadUpset: 1, UpsetMag: 0.5}, rngutil.New(22))
	e.Attach(noisy)
	x := tensor.Vector{1, 1, 1, 1}
	yc := clean.Forward(x)
	yn := noisy.Forward(x)
	same := true
	for i := range yc {
		if yc[i] != yn[i] {
			same = false
		}
	}
	if same {
		t.Fatal("certain upsets left every output untouched")
	}
	if e.Stats().Upsets == 0 {
		t.Fatal("upset counter did not move")
	}
}

func TestLineOpensMaskEverything(t *testing.T) {
	a := idealArray(4, 4, 31)
	a.Program(randomTarget(4, 4, 0.5, 32), 2000)
	e := NewEngine(Plan{LineOpenPerOp: 1}, rngutil.New(33))
	e.Attach(a)
	x := tensor.Vector{1, 1, 1, 1}
	for op := 0; op < 200; op++ {
		a.Forward(x)
	}
	rows, cols := openLines(e, a)
	if rows != 4 || cols != 4 {
		t.Fatalf("after 200 certain opens all 8 lines should be open, got %d rows %d cols", rows, cols)
	}
	y := a.Forward(x)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("output %d = %v through fully-open array", i, v)
		}
	}
}

func TestDriftBurstsFireOnSchedule(t *testing.T) {
	a := crossbar.NewArray(4, 4, crossbar.PCM(), crossbar.DefaultConfig(), rngutil.New(41))
	a.PulseAll(100, true)
	w := a.Weights().At(0, 0)
	e := NewEngine(Plan{DriftBurstEvery: 10, DriftBurstDt: 1e5}, rngutil.New(42))
	e.Attach(a)
	x := make(tensor.Vector, 4)
	for op := 0; op < 30; op++ {
		a.Forward(x)
	}
	if got := e.Stats().DriftBursts; got != 3 {
		t.Fatalf("30 ops at every-10 should fire 3 bursts, got %d", got)
	}
	if a.Weights().At(0, 0) >= w {
		t.Fatal("drift bursts should decay PCM weights")
	}
}

func TestWriteFailuresDropPulses(t *testing.T) {
	a := idealArray(6, 6, 51)
	e := NewEngine(Plan{WriteFail: 0.5}, rngutil.New(52))
	e.Attach(a)
	rep := a.ProgramVerify(randomTarget(6, 6, 0.5, 53), crossbar.ProgramPolicy{MaxPulses: 200, MaxRetries: 5})
	if e.Stats().DroppedWrites == 0 {
		t.Fatal("write failures never fired")
	}
	if rep.Failed != 0 {
		t.Fatalf("retry should out-persist 50%% write drops: %+v", rep)
	}
}

func TestDetectFindsPlantedDeadCells(t *testing.T) {
	a := idealArray(8, 6, 61)
	target := randomTarget(8, 6, 0.3, 62)
	a.Program(target, 4000)
	// Plant two dead crosspoints far from their targets.
	a.FreezeAt(2, 3, target.At(2, 3)+0.7)
	a.FreezeAt(5, 1, target.At(5, 1)-0.6)
	diag := Detect(a, target, 0)
	if len(diag.Dead) != 2 {
		t.Fatalf("planted 2 dead cells, detected %d: %+v", len(diag.Dead), diag.Dead)
	}
	found := map[[2]int]bool{}
	for _, d := range diag.Dead {
		found[d] = true
	}
	if !found[[2]int{2, 3}] || !found[[2]int{5, 1}] {
		t.Fatalf("wrong cells flagged: %+v", diag.Dead)
	}
	if want := 2 + len(diag.SuspectCols); diag.Reads != want {
		t.Fatalf("detection cost %d reads, want %d", diag.Reads, want)
	}
	if len(diag.SuspectCols) != 2 {
		t.Fatalf("noiseless checksums should suspect exactly the 2 faulty columns, got %v", diag.SuspectCols)
	}
}

func TestDetectIgnoresSaturatedTargets(t *testing.T) {
	a := idealArray(6, 4, 63)
	target := randomTarget(6, 4, 0.3, 64)
	target.Set(1, 2, 3) // beyond WMax: representation error, not a fault
	a.Program(target, 4000)
	diag := Detect(a, target, 0)
	if len(diag.Dead) != 0 {
		t.Fatalf("saturated target flagged as dead: %+v", diag.Dead)
	}
}

func TestRepairRecoversMVMFidelity(t *testing.T) {
	r := NewRemappedArray(8, 6, 2, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(71))
	target := randomTarget(8, 6, 0.3, 72)
	r.Program(target, crossbar.DefaultProgramPolicy())
	// Kill three crosspoints of physical column 4.
	for _, i := range []int{1, 3, 6} {
		r.Arr.FreezeAt(i, 4, target.At(i, 4)+0.8)
	}
	x := make(tensor.Vector, 6)
	x.Fill(1)
	want := target.MatVec(x)
	errBefore := maxAbsDiff(r.Forward(x), want)

	rep := r.Repair(target, 0, 2000)
	if rep.Remapped != 1 {
		t.Fatalf("expected exactly the damaged column to move, moved %d", rep.Remapped)
	}
	if len(r.spares) != 1 {
		t.Fatalf("spares left = %d, want 1", len(r.spares))
	}
	errAfter := maxAbsDiff(r.Forward(x), want)
	if errAfter >= errBefore/4 {
		t.Fatalf("repair barely helped: error %v -> %v", errBefore, errAfter)
	}
	if res := r.Residual(target); res > 2*crossbar.Ideal().MeanStep() {
		t.Fatalf("logical residual %v after repair", res)
	}
}

func TestRepairKeepsColumnWhenSparesAreWorse(t *testing.T) {
	r := NewRemappedArray(6, 3, 1, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(81))
	target := randomTarget(6, 3, 0.3, 82)
	r.Program(target, crossbar.DefaultProgramPolicy())
	// One dead cell in a logical column; the only spare is deader.
	r.Arr.FreezeAt(2, 1, target.At(2, 1)+0.8)
	for _, i := range []int{0, 1, 4} {
		r.Arr.FreezeAt(i, 3, 0.9) // spare column 3
	}
	rep := r.Repair(target, 0, 2000)
	if rep.Remapped != 0 {
		t.Fatalf("moved a column onto a worse spare (%d remapped)", rep.Remapped)
	}
	if len(r.spares) != 1 {
		t.Fatal("spare should not be consumed")
	}
}

func TestRemappedArrayGeometryAndGating(t *testing.T) {
	r := NewRemappedArray(4, 3, 2, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(91))
	if r.Rows() != 4 || r.Cols() != 3 {
		t.Fatalf("logical geometry %dx%d", r.Rows(), r.Cols())
	}
	if r.Arr.Cols() != 5 {
		t.Fatalf("physical columns %d, want 5", r.Arr.Cols())
	}
	if len(r.spares) != 2 {
		t.Fatalf("spares %d", len(r.spares))
	}
	target := randomTarget(4, 3, 0.3, 92)
	r.Program(target, crossbar.DefaultProgramPolicy())
	x := tensor.Vector{0.5, -0.5, 1}
	y := r.Forward(x)
	if len(y) != 4 {
		t.Fatalf("forward length %d", len(y))
	}
	if got := maxAbsDiff(y, target.MatVec(x)); got > 0.05 {
		t.Fatalf("logical MVM off by %v", got)
	}
	d := tensor.Vector{1, -1, 0.5, 0}
	if got := len(r.Backward(d)); got != 3 {
		t.Fatalf("backward length %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size forward should panic")
		}
	}()
	r.Forward(tensor.Vector{1, 2, 3, 4, 5})
}

func TestFaultyTCAMRedundancyHarmlessAtZeroRate(t *testing.T) {
	rng1 := rngutil.New(101)
	rng2 := rngutil.New(101)
	r1 := NewFaultyLSHRetriever(16, 32, 20, 0, 1, rng1)
	r2 := NewFaultyLSHRetriever(16, 32, 40, 0, 2, rng2)
	vr := rngutil.New(102)
	var stored []tensor.Vector
	for c := 0; c < 5; c++ {
		v := make(tensor.Vector, 16)
		for i := range v {
			v[i] = vr.Uniform(-1, 1)
		}
		stored = append(stored, v)
		r1.Store(v, c)
		r2.Store(v, c)
	}
	if r1.next != 5 || r2.next != 10 {
		t.Fatalf("rows used %d / %d", r1.next, r2.next)
	}
	for c, v := range stored {
		if g1, g2 := r1.Classify(v), r2.Classify(v); g1 != g2 || g1 != c {
			t.Fatalf("fault-free retrievers disagree on class %d: %d vs %d", c, g1, g2)
		}
	}
}

func TestFaultyTCAMFaultMapSurvivesReset(t *testing.T) {
	r := NewFaultyLSHRetriever(8, 16, 10, 0.5, 1, rngutil.New(111))
	before := append([]tcamCellFault(nil), r.faultMap...)
	stuck := 0
	for _, f := range before {
		if f != cellHealthy {
			stuck++
		}
	}
	if stuck == 0 {
		t.Fatal("half-rate fault map is empty")
	}
	r.Store(make(tensor.Vector, 8), 0)
	r.Reset()
	if r.next != 0 {
		t.Fatal("reset should clear contents")
	}
	for i, f := range r.faultMap {
		if f != before[i] {
			t.Fatal("reset healed the chip")
		}
	}
}

// The nested-fault-set property: for a fixed seed the stuck-cell set at a
// lower rate is a subset of the set at a higher rate.
func TestFaultyTCAMNestedFaultSets(t *testing.T) {
	lowR := NewFaultyLSHRetriever(8, 16, 20, 0.1, 1, rngutil.New(121))
	highR := NewFaultyLSHRetriever(8, 16, 20, 0.3, 1, rngutil.New(121))
	lowCount := 0
	for i, f := range lowR.faultMap {
		if f != cellHealthy {
			lowCount++
			if highR.faultMap[i] == cellHealthy {
				t.Fatalf("cell %d stuck at rate 0.1 but healthy at 0.3", i)
			}
		}
	}
	if lowCount == 0 {
		t.Fatal("no faults at rate 0.1")
	}
}

func TestTCAMSweepShape(t *testing.T) {
	cfg := DefaultSweepConfig(42, true)
	cfg.Rates = []float64{0, 0.2}
	points := TCAMSweep(cfg)
	if len(points) != len(cfg.Rates)*len(cfg.Redundancies) {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Fatalf("accuracy %v out of range", p.Accuracy)
		}
	}
	// Paired episodes: redundancy is exactly harmless on a fault-free chip.
	if points[0].Accuracy != points[1].Accuracy {
		t.Fatalf("rate-0 accuracies differ across redundancy: %v vs %v",
			points[0].Accuracy, points[1].Accuracy)
	}
}

func TestXMannSweepRetryDominatesAtZeroRate(t *testing.T) {
	cfg := DefaultSweepConfig(42, true)
	cfg.Rates = []float64{0}
	cfg.Placements = 1
	points := XMannSweep(cfg)
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	none, retry := points[0], points[1]
	if none.Strategy != "none" || retry.Strategy != "retry" {
		t.Fatalf("unexpected strategies %q %q", none.Strategy, retry.Strategy)
	}
	if retry.Accuracy < none.Accuracy {
		t.Fatalf("retry agreement %v below single-shot %v", retry.Accuracy, none.Accuracy)
	}
	if retry.Residual >= none.Residual {
		t.Fatalf("retry soft-read error %v should beat %v", retry.Residual, none.Residual)
	}
}

func maxAbsDiff(a, b tensor.Vector) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// openLines reports how many row and column lines have opened on a.
func openLines(e *Engine, a *crossbar.Array) (rows, cols int) {
	s := e.stateOf(a)
	return len(openIndices(s.openRows)), len(openIndices(s.openCols))
}

// TestFilterPulsesFollowsArray interleaves FilterPulses between two arrays
// with a line open on only one of them, and checks every result and the
// blocked and dropped counts against a model: a pulse on an open line of
// its own array is blocked without a draw; any other pulse is dropped
// exactly when the next write-failure draw of a twin stream fails. It
// repeats after Reset, on a Clone and after an ExportState/ImportState
// round trip, each time starting on the array last filtered, at the line
// that array had open or not before, so an engine answering from stale
// cached state fails.
func TestFilterPulsesFollowsArray(t *testing.T) {
	a, b := idealArray(4, 4, 1), idealArray(4, 4, 2)
	// filter issues 15 pulses alternating first and second, starting and
	// ending on first, the first of them at row 1 and column 3.
	filter := func(stage string, e *Engine, ref *rngutil.Source, first, second *crossbar.Array,
		openRow, openCol map[*crossbar.Array]int) {
		t.Helper()
		before := e.Stats()
		var blocked, dropped int64
		for k := 0; k < 15; k++ {
			arr := []*crossbar.Array{first, second}[k%2]
			row, col := (k/2+1)%4, (k/2+3)%4
			want := 3
			if r, ok := openRow[arr]; ok && r == row {
				want = 0
				blocked++
			} else if c, ok := openCol[arr]; ok && c == col {
				want = 0
				blocked++
			} else if ref.Bernoulli(0.5) {
				want = 0
				dropped++
			}
			if got := e.FilterPulses(arr, row, col, 3, true); got != want {
				t.Fatalf("%s: pulse %d on array %p (%d,%d): %d land, want %d", stage, k, arr, row, col, got, want)
			}
		}
		st := e.Stats()
		if st.BlockedUpdates-before.BlockedUpdates != blocked || st.DroppedWrites-before.DroppedWrites != dropped {
			t.Fatalf("%s: blocked %d dropped %d, want %d and %d", stage,
				st.BlockedUpdates-before.BlockedUpdates, st.DroppedWrites-before.DroppedWrites, blocked, dropped)
		}
	}
	none := map[*crossbar.Array]int{}

	e := NewEngine(Plan{WriteFail: 0.5}, rngutil.New(3))
	e.Attach(a)
	e.Attach(b)
	e.stateOf(a).openRows[1] = true
	filter("fresh", e, rngutil.New(e.seed), a, b, map[*crossbar.Array]int{a: 1}, none)

	// The last lookup was a, with row 1 open; Reset closes it.
	e.Reset()
	ref := rngutil.New(e.seed)
	filter("reset", e, ref, a, b, none, none)
	e.stateOf(b).openRows[1] = true
	filter("reset, b open", e, ref, b, a, map[*crossbar.Array]int{b: 1}, none)

	// The last lookup was b, with row 1 open; a clone has no line open.
	c := e.Clone()
	ref = rngutil.New(c.seed)
	filter("clone", c, ref, b, a, none, none)
	c.stateOf(a).openCols[3] = true
	filter("clone, a col open", c, ref, a, b, none, map[*crossbar.Array]int{a: 3})

	// Export e (attach order a, b; row 1 open on b) into an engine attached
	// in the same order whose last lookup was b while b had no line open.
	blob, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	ref = rngutil.FromState(e.rng.State())
	f := e.Clone()
	f.Attach(a)
	f.Attach(b)
	f.FilterPulses(b, 1, 3, 1, true)
	if err := f.ImportState(blob); err != nil {
		t.Fatal(err)
	}
	filter("import", f, ref, b, a, map[*crossbar.Array]int{b: 1}, none)
}
