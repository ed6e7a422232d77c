package crossbar

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// memoTestArray builds a small array of model in the given update mode,
// programmed to random weights so every read has a non-trivial answer.
func memoTestArray(m Model, mode UpdateMode) *Array {
	cfg := DefaultConfig()
	cfg.Update = mode
	a := NewArray(6, 5, m, cfg, rngutil.New(41))
	lo, hi := m.WeightBounds()
	rng := rngutil.New(43)
	target := tensor.NewMatrix(6, 5)
	for i := range target.Data {
		target.Data[i] = rng.Uniform(lo/2, hi/2)
	}
	a.Program(target, 200)
	return a
}

func memoTestVector(n int, seed uint64) tensor.Vector {
	rng := rngutil.New(seed)
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = rng.Uniform(-1, 1)
	}
	return v
}

func requireBits(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

// upsetHook adds 1 to every read output, so a hooked read is told apart
// from the exact MVM.
type upsetHook struct{ NopHook }

func (upsetHook) FilterOutput(_ *Array, _ OpKind, y tensor.Vector) {
	for i := range y {
		y[i]++
	}
}

// memoHeld reports whether the array holds any stored read.
func memoHeld(a *Array) bool { return a.memo.e[0].valid || a.memo.e[1].valid }

// TestReadMemoMutationMatrix runs, for every device model and every entry
// point, Forward(x) → operation → Forward(x). An operation that can change
// a weight must drop the read memo; a read, or an update that issues no
// pulse, must keep it. Either way the second read must equal the exact MVM
// of the weights after the operation, bit for bit. Every case must also
// hold its memo after the first read, so none passes vacuously.
func TestReadMemoMutationMatrix(t *testing.T) {
	type mutation struct {
		name string
		mode UpdateMode
		prep func(a *Array) // runs before the first read
		run  func(a *Array, u, v tensor.Vector)
	}
	target := func(a *Array, seed uint64) *tensor.Matrix {
		lo, hi := a.Model().WeightBounds()
		rng := rngutil.New(seed)
		m := tensor.NewMatrix(a.Rows(), a.Cols())
		for i := range m.Data {
			m.Data[i] = rng.Uniform(lo/2, hi/2)
		}
		return m
	}
	// The stuck-row updates drive row 1 alone, whose devices prep froze; a
	// twin whose row 1 yields must pulse under the same update, so the
	// update does drive devices.
	const hot = 1
	freezeHot := func(a *Array) {
		for j := 0; j < a.Cols(); j++ {
			a.Freeze(hot, j)
		}
	}
	stuckRowUpdate := func(mode UpdateMode) func(a *Array, u, v tensor.Vector) {
		return func(a *Array, _, v tensor.Vector) {
			oneHot := make(tensor.Vector, a.Rows())
			oneHot[hot] = 1
			twin := memoTestArray(a.Model(), mode)
			before := twin.Counts.Pulses
			twin.Update(0.3, oneHot, v)
			if twin.Counts.Pulses == before {
				panic("the stuck-row update pulses no device of a yielding twin")
			}
			a.Update(0.3, oneHot, v)
		}
	}
	zeroU := func(a *Array, _, v tensor.Vector) { a.Update(0.3, make(tensor.Vector, a.Rows()), v) }
	drop := []mutation{
		{"Update/stochastic", UpdateStochastic, nil, func(a *Array, u, v tensor.Vector) { a.Update(0.3, u, v) }},
		{"Update/expected", UpdateExpected, nil, func(a *Array, u, v tensor.Vector) { a.Update(0.3, u, v) }},
		{"UpdateReference", UpdateStochastic, nil, func(a *Array, u, v tensor.Vector) { a.UpdateReference(0.3, u, v) }},
		{"UpdateReference/expected", UpdateExpected, nil, func(a *Array, u, v tensor.Vector) { a.UpdateReference(0.3, u, v) }},
		{"UpdateDeviceExact", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.UpdateDeviceExact(1, 2, 5, true) }},
		{"PulseAll", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.PulseAll(3, false) }},
		{"AlternatePulseAll", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.AlternatePulseAll(2) }},
		{"ResetAll", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.ResetAll() }},
		{"Program", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.Program(target(a, 7), 100) }},
		{"ProgramDevice", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.ProgramDevice(2, 3, 0, 100) }},
		{"ProgramVerify", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) {
			a.ProgramVerify(target(a, 9), ProgramPolicy{MaxPulses: 50, MaxRetries: 1})
		}},
		{"AdvanceTime", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.AdvanceTime(1e4) }},
		{"Freeze", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.Freeze(0, 1) }},
		{"FreezeAt", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.FreezeAt(0, 1, 0.123) }},
		{"ImportState", UpdateStochastic, nil, func(a *Array, u, v tensor.Vector) {
			twin := memoTestArray(a.Model(), UpdateStochastic)
			twin.Update(0.5, u, v)
			if err := a.ImportState(twin.ExportState()); err != nil {
				panic(err)
			}
		}},
		{"ExportState", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.ExportState() }},
		{"SetFaultHook/attach", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) { a.SetFaultHook(NopHook{}) }},
		{"SetFaultHook/attach-detach", UpdateStochastic, nil, func(a *Array, _, _ tensor.Vector) {
			a.SetFaultHook(NopHook{})
			a.SetFaultHook(nil)
		}},
	}
	keep := []mutation{
		{"Backward", UpdateStochastic, nil, func(a *Array, u, _ tensor.Vector) { a.Backward(u) }},
		{"SkipBackward", UpdateStochastic, nil, func(a *Array, u, _ tensor.Vector) { a.SkipBackward(u) }},
		{"Update/zero-u/stochastic", UpdateStochastic, nil, zeroU},
		{"Update/zero-u/expected", UpdateExpected, nil, zeroU},
		{"Update/stuck-row/stochastic", UpdateStochastic, freezeHot, stuckRowUpdate(UpdateStochastic)},
		{"Update/stuck-row/expected", UpdateExpected, freezeHot, stuckRowUpdate(UpdateExpected)},
	}
	check := func(t *testing.T, m Model, mu mutation, wantKept bool) {
		a := memoTestArray(m, mu.mode)
		if mu.prep != nil {
			mu.prep(a)
		}
		u := memoTestVector(a.Rows(), 3)
		x := memoTestVector(a.Cols(), 5)
		a.Forward(x)
		if !memoHeld(a) {
			t.Fatal("a hook-free read left no memo")
		}
		mu.run(a, u, x)
		if kept := memoHeld(a); kept != wantKept {
			t.Fatalf("%s: read memo kept %v, want %v", mu.name, kept, wantKept)
		}
		requireBits(t, "read after "+mu.name, a.Forward(x), a.Weights().MatVec(x))
	}
	for _, m := range allModels() {
		for _, mu := range drop {
			t.Run(m.Name()+"/"+mu.name, func(t *testing.T) { check(t, m, mu, false) })
		}
		for _, mu := range keep {
			t.Run(m.Name()+"/"+mu.name, func(t *testing.T) { check(t, m, mu, true) })
		}
	}
}

// TestReadMemoHit pins the hit path: a repeated read is answered from the
// memo without an MVM (shown by changing the weight plane behind the
// memo's back), counts as a read, returns a vector of its own, and keys on
// the input's exact bits.
func TestReadMemoHit(t *testing.T) {
	a := memoTestArray(Ideal(), UpdateStochastic)
	x := memoTestVector(a.Cols(), 5)
	x[2] = 0
	y1 := a.Forward(x)
	requireBits(t, "first read", y1, a.Weights().MatVec(x))

	// Change a weight without an entry point: only a hit still sees the old
	// answer.
	a.cells.w[2*a.cols] += 0.25
	before := a.Counts
	y2 := a.Forward(x)
	requireBits(t, "repeated read", y2, y1)
	if a.Counts.Forwards != before.Forwards+1 ||
		a.Counts.DigitalMACs != before.DigitalMACs+int64(a.rows*a.cols) {
		t.Fatalf("a memo hit counted %+v after %+v, want one read", a.Counts, before)
	}
	requireOwnVector(t, a, y2, y1)

	// The caller owns every vector it passed or got back.
	want := y1.Clone()
	y1[0], y2[1] = 42, 43
	requireBits(t, "read after the caller edited its outputs", a.Forward(x), want)
	x[0] += 1
	requireBits(t, "read after the caller edited its input", a.Forward(x), a.Weights().MatVec(x))

	// −0 and +0 are different keys: the read misses and sees the new weight.
	negZero := x.Clone()
	negZero[2] = math.Copysign(0, -1)
	a.cells.w[3*a.cols] -= 0.25
	requireBits(t, "read of the −0 variant", a.Forward(negZero), a.Weights().MatVec(negZero))
	if !math.Signbit(a.memo.e[a.memo.last].x[2]) {
		t.Fatal("the −0 read hit the +0 memo")
	}
}

// requireOwnVector fails when y aliases prev or either memo entry's output.
func requireOwnVector(t *testing.T, a *Array, y, prev tensor.Vector) {
	t.Helper()
	if &y[0] == &prev[0] {
		t.Fatal("a hit returned the vector of an earlier result")
	}
	for k, e := range a.memo.e {
		if len(e.y) > 0 && &y[0] == &e.y[0] {
			t.Fatalf("a hit returned memo entry %d's vector", k)
		}
	}
}

// TestReadMemoTwoEntries: two inputs read in alternation are both answered
// from the memo, and a third input evicts the entry used least recently.
func TestReadMemoTwoEntries(t *testing.T) {
	a := memoTestArray(Ideal(), UpdateExpected)
	x1, x2, x3 := memoTestVector(a.Cols(), 5), memoTestVector(a.Cols(), 6), memoTestVector(a.Cols(), 7)
	y1, y2 := a.Forward(x1), a.Forward(x2)
	// Only a hit still sees the weights from before this edit.
	a.cells.w[a.cols+1] += 0.25
	for r := 0; r < 2; r++ {
		h1 := a.Forward(x1)
		requireBits(t, "alternating read of x1", h1, y1)
		requireOwnVector(t, a, h1, y1)
		h2 := a.Forward(x2)
		requireBits(t, "alternating read of x2", h2, y2)
		requireOwnVector(t, a, h2, y2)
	}
	// x2 answered last, so x3 evicts x1.
	requireBits(t, "read of x3", a.Forward(x3), a.Weights().MatVec(x3))
	requireBits(t, "x2 after x3", a.Forward(x2), y2)
	requireBits(t, "x1 after it was evicted", a.Forward(x1), a.Weights().MatVec(x1))
}

// TestReadMemoHookedArray: a hooked array neither answers from nor fills
// the memo, so every hooked read sees the hook, and the first hook-free
// read after it is computed.
func TestReadMemoHookedArray(t *testing.T) {
	a := memoTestArray(PCM(), UpdateStochastic)
	x := memoTestVector(a.Cols(), 5)
	exact := a.Forward(x)
	a.SetFaultHook(upsetHook{})
	for r := 0; r < 2; r++ {
		got := a.Forward(x)
		for i := range got {
			if got[i] != exact[i]+1 {
				t.Fatalf("hooked read %d: element %d = %v, want the hook's %v", r, i, got[i], exact[i]+1)
			}
		}
		if memoHeld(a) {
			t.Fatal("a hooked read filled the memo")
		}
	}
	a.SetFaultHook(nil)
	requireBits(t, "first read after detach", a.Forward(x), exact)
}

// TestForwardIntoMatchesForward: ForwardInto overwrites whatever y held
// with Forward's bits, on the computed and on the memo path.
func TestForwardIntoMatchesForward(t *testing.T) {
	a := memoTestArray(RRAM(), UpdateStochastic)
	x := memoTestVector(a.Cols(), 5)
	want := a.Weights().MatVec(x)
	for r := 0; r < 2; r++ {
		y := make(tensor.Vector, a.Rows())
		y.Fill(math.NaN())
		a.ForwardInto(x, y)
		requireBits(t, "ForwardInto", y, want)
	}
}
