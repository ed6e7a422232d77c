package crossbar

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// TestReferenceUpdateBitIdentical is the noiseless-linear update kernels'
// correctness gate: for every linear-step variant the engine accelerates,
// in both update modes and at one and four workers, the full mixed-op
// script must produce bit-identical outputs and exported state (devices,
// mirror and Counts) under the kernel and under UpdateReference — the
// scalar twin the benchmark speedup budget is measured against.
func TestReferenceUpdateBitIdentical(t *testing.T) {
	defer par.SetWorkers(0)
	stuck := DefaultConfig()
	stuck.StuckFraction = 0.08
	stuck.StuckValueStd = 0.3
	expected := DefaultConfig()
	expected.Update = UpdateExpected
	stuckExpected := stuck
	stuckExpected.Update = UpdateExpected
	deviceVar := &LinearStepModel{P: LinearStepParams{
		DwMin: 0.002, DeviceVar: 0.3, WMin: -1, WMax: 1,
	}}
	asymmetric := &LinearStepModel{P: LinearStepParams{
		DwMin: 0.002, Asymmetry: 0.05, WMin: -0.8, WMax: 0.9,
	}}
	varAsym := &LinearStepModel{P: LinearStepParams{
		DwMin: 0.0025, Asymmetry: -0.04, DeviceVar: 0.25, WMin: -1, WMax: 1,
	}}
	models := []struct {
		name  string
		model *LinearStepModel
		cfg   Config
	}{
		{"ideal", Ideal(), DefaultConfig()},
		{"device-var", deviceVar, DefaultConfig()},
		{"asymmetric", asymmetric, DefaultConfig()},
		{"var-asym-stuck", varAsym, stuck},
		{"expected/ideal", Ideal(), expected},
		{"expected/device-var", deviceVar, expected},
		{"expected/asymmetric", asymmetric, expected},
		{"expected/var-asym-stuck", varAsym, stuckExpected},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					par.SetWorkers(workers)
					wantOuts, wantState := runOpScriptWith(tc.model, tc.cfg, (*Array).UpdateReference)
					gotOuts, gotState := runOpScript(tc.model, tc.cfg)
					for o := range wantOuts {
						for i := range wantOuts[o] {
							if math.Float64bits(gotOuts[o][i]) != math.Float64bits(wantOuts[o][i]) {
								t.Fatalf("output %d element %d = %x, want %x (reference path)",
									o, i, math.Float64bits(gotOuts[o][i]), math.Float64bits(wantOuts[o][i]))
							}
						}
					}
					if !reflect.DeepEqual(gotState, wantState) {
						t.Fatal("engine state diverged from reference update path")
					}
				})
			}
		})
	}
}

// TestUpdateReferenceTakesGenericPath guards the oracle itself: the
// bit-identity test above is only meaningful if UpdateReference really
// bypasses the noiseless-linear kernels. In stochastic mode only the
// generic path draws from the per-tile streams, so only it creates and
// reseeds them. In expected mode both paths draw, but only the kernel
// writes the pulse plan in the arena.
func TestUpdateReferenceTakesGenericPath(t *testing.T) {
	data := rngutil.New(6)
	u, v := scriptVec(64, 4, data), scriptVec(64, 3, data)
	t.Run("stochastic", func(t *testing.T) {
		a := NewArray(64, 64, Ideal(), DefaultConfig(), rngutil.New(5))
		a.Update(0.05, u, v)
		if a.arena.tileSrc[0] != nil {
			t.Fatal("Update reseeded the tile streams: it ran the generic path")
		}
		a.UpdateReference(0.05, u, v)
		if a.arena.tileSrc[0] == nil {
			t.Fatal("UpdateReference did not reseed the tile streams: it ran the linear kernel")
		}
	})
	t.Run("expected", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Update = UpdateExpected
		a := NewArray(64, 64, Ideal(), cfg, rngutil.New(5))
		planned := func() bool {
			for _, r := range a.arena.runs {
				if r != (pulseRun{}) {
					return true
				}
			}
			return false
		}
		before := a.Counts.Pulses
		a.UpdateReference(0.05, u, v)
		if a.Counts.Pulses == before {
			t.Fatal("the update issued no pulse: the check would pass vacuously")
		}
		if planned() {
			t.Fatal("UpdateReference wrote the pulse plan: it ran the expected-mode kernel")
		}
		a.Update(0.05, u, v)
		if !planned() {
			t.Fatal("Update left the pulse plan empty: it ran the generic path")
		}
	})
}

// TestOneHotUpdateSeedsOnlyDrivenTile pins lazy seeding: an expected-mode
// update that drives one row seeds that row's tile stream and leaves every
// other tile's stream unseeded.
func TestOneHotUpdateSeedsOnlyDrivenTile(t *testing.T) {
	const rows, hot = 256, 130
	cfg := DefaultConfig()
	cfg.Update = UpdateExpected
	a := NewArray(rows, 16, Ideal(), cfg, rngutil.New(7))
	u := make(tensor.Vector, rows)
	u[hot] = 1
	a.Update(0.05, u, scriptVec(16, 0, rngutil.New(8)))
	if len(a.arena.tileSrc) < 2 {
		t.Fatalf("%d tiles: the check needs several", len(a.arena.tileSrc))
	}
	for ti, src := range a.arena.tileSrc {
		lo, hi := par.Bounds(ti, rows)
		if seeded, driven := src != nil, lo <= hot && hot < hi; seeded != driven {
			t.Errorf("tile %d [%d,%d): seeded %v, driven %v", ti, lo, hi, seeded, driven)
		}
	}
}

// TestUpdateAllocBudget is the crossbar-level twin of the par alloc tests:
// once the arena is warm, the hot array ops stay within the ≤2 allocs/op
// budget the bench-report gate enforces (output vector and/or dispatch
// closure, nothing else).
func TestUpdateAllocBudget(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	defer par.SetWorkers(0)
	par.SetWorkers(4)
	a := NewArray(256, 256, Ideal(), DefaultConfig(), rngutil.New(21))
	b := NewArray(256, 256, Ideal(), DefaultConfig(), rngutil.New(21))
	expected := DefaultConfig()
	expected.Update = UpdateExpected
	e := NewArray(256, 256, Ideal(), expected, rngutil.New(21))
	data := rngutil.New(2)
	x := scriptVec(256, 5, data)
	u := scriptVec(256, 4, data)
	v := scriptVec(256, 3, data)
	for name, tc := range map[string]struct {
		budget float64
		fn     func()
	}{
		"update-engine":    {2, func() { a.Update(0.02, u, v) }},
		"update-reference": {2, func() { b.UpdateReference(0.02, u, v) }},
		// The expected-mode kernel plans into the arena: nothing per op.
		"update-expected-linear": {0, func() { e.Update(0.02, u, v) }},
		"forward":                {2, func() { a.Forward(x) }},
		"backward":               {2, func() { a.Backward(u) }},
	} {
		tc.fn() // warm the arena and tile RNG streams
		if got := testing.AllocsPerRun(30, tc.fn); got > tc.budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, tc.budget)
		}
	}
}

// droppingHook is a deterministic fault injector: it suppresses every Nth
// pulse train reaching the write path. Attaching it pins the op order
// (hooked arrays run tiles sequentially), so its observation sequence — and
// therefore the array it produces — must be invariant across worker counts.
type droppingHook struct {
	NopHook
	n     int
	calls int
}

func (h *droppingHook) FilterPulses(_ *Array, _, _, k int, _ bool) int {
	h.calls++
	if h.calls%h.n == 0 {
		return 0
	}
	return k
}

// TestWorkerInvarianceWithFaultHook extends the worker-count invariance
// acceptance to arrays with an active fault hook: the hook's deterministic
// pulse-dropping must see the identical call sequence at every worker
// count, so outputs, state, and the hook's own counter all match.
func TestWorkerInvarianceWithFaultHook(t *testing.T) {
	defer par.SetWorkers(0)
	run := func() ([]tensor.Vector, ArrayState, int) {
		a := NewArray(97, 131, Ideal(), DefaultConfig(), rngutil.New(777))
		h := &droppingHook{n: 5}
		a.SetFaultHook(h)
		data := rngutil.New(3)
		var outs []tensor.Vector
		for step := 0; step < 3; step++ {
			x := scriptVec(131, 6, data)
			outs = append(outs, a.Forward(x))
			a.Update(0.02, scriptVec(97, 4, data), scriptVec(131, 3, data))
			outs = append(outs, a.Forward(x))
		}
		return outs, a.ExportState(), h.calls
	}
	par.SetWorkers(1)
	wantOuts, wantState, wantCalls := run()
	if wantCalls == 0 {
		t.Fatal("fault hook never saw a pulse train")
	}
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		gotOuts, gotState, gotCalls := run()
		if gotCalls != wantCalls {
			t.Fatalf("workers=%d: hook saw %d pulse calls, want %d", w, gotCalls, wantCalls)
		}
		for o := range wantOuts {
			for i := range wantOuts[o] {
				if math.Float64bits(gotOuts[o][i]) != math.Float64bits(wantOuts[o][i]) {
					t.Fatalf("workers=%d: output %d element %d diverged", w, o, i)
				}
			}
		}
		if !reflect.DeepEqual(gotState, wantState) {
			t.Fatalf("workers=%d: state diverged with active fault hook", w)
		}
	}
}

// TestCheckpointMidFastPath pins the deferred-writeback barrier on the
// checkpoint path: exporting immediately after a fast-path Update (while
// the device-state writeback is still pending) must settle every device, so
// a restore into a fresh array continues bit-identically with the original.
func TestCheckpointMidFastPath(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(4)
	a := NewArray(97, 131, Ideal(), DefaultConfig(), rngutil.New(42))
	data := rngutil.New(9)
	for step := 0; step < 3; step++ {
		a.Forward(scriptVec(131, 6, data))
		a.Update(0.05, scriptVec(97, 4, data), scriptVec(131, 3, data))
	}
	// The last op was a fast-path update: device writeback is pending here.
	st := a.ExportState()
	for i, d := range st.Devices {
		if math.Float64bits(d.F[0]) != math.Float64bits(st.Mirror[i]) {
			t.Fatalf("exported device %d weight %x disagrees with mirror %x (writeback not settled)",
				i, math.Float64bits(d.F[0]), math.Float64bits(st.Mirror[i]))
		}
	}
	b := NewArray(97, 131, Ideal(), DefaultConfig(), rngutil.New(1))
	if err := b.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	for step := 0; step < 3; step++ {
		x := scriptVec(131, 5, data)
		u := scriptVec(97, 3, data)
		v := scriptVec(131, 4, data)
		ya := a.Forward(x)
		yb := b.Forward(x)
		for i := range ya {
			if math.Float64bits(ya[i]) != math.Float64bits(yb[i]) {
				t.Fatalf("step %d: restored array diverged at output %d", step, i)
			}
		}
		a.Update(0.02, u, v)
		b.Update(0.02, u, v)
	}
	if !reflect.DeepEqual(a.ExportState(), b.ExportState()) {
		t.Fatal("restored array state diverged after continued updates")
	}
}

// BenchmarkUpdateExpected times one X-MANN soft write — a one-hot u on a
// 128×512 expected-mode ideal array, a few hundred pulses per device of
// the driven row — on the expected-mode kernel and on UpdateReference.
// The write alternates its sign, so the weights stay inside the bounds.
func BenchmarkUpdateExpected(b *testing.B) {
	const rows, cols, hot = 128, 512, 37
	cfg := DefaultConfig()
	cfg.Update = UpdateExpected
	u := make(tensor.Vector, rows)
	u[hot] = 1
	rng := rngutil.New(4)
	v := make(tensor.Vector, cols)
	for j := range v {
		v[j] = rng.Uniform(-0.5, 0.5)
	}
	for _, bc := range []struct {
		name   string
		update func(a *Array, scale float64, u, v tensor.Vector)
	}{
		{"kernel", (*Array).Update},
		{"reference", (*Array).UpdateReference},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewArray(rows, cols, Ideal(), cfg, rngutil.New(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.update(a, float64(1-2*(i&1)), u, v)
			}
		})
	}
}
