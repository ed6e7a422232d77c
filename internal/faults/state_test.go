package faults

import (
	"reflect"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// chaoticPlan exercises every fault process the engine implements.
func chaoticPlan() Plan {
	return Plan{
		StuckPerOp:      0.2,
		StuckValueStd:   0.3,
		ReadUpset:       0.05,
		UpsetMag:        0.1,
		WriteFail:       0.1,
		LineOpenPerOp:   0.08,
		DriftBurstEvery: 7,
		DriftBurstDt:    5,
	}
}

func statePair(seed1, seed2 uint64) (*crossbar.Array, *crossbar.Array) {
	a := crossbar.NewArray(6, 5, crossbar.PCM(), crossbar.DefaultConfig(), rngutil.New(seed1))
	b := crossbar.NewArray(4, 7, crossbar.RRAM(), crossbar.DefaultConfig(), rngutil.New(seed2))
	return a, b
}

// drive pushes both arrays through n op rounds under the engine's faults.
func drive(a1, a2 *crossbar.Array, n int) {
	x1 := make(tensor.Vector, a1.Cols())
	u1 := make(tensor.Vector, a1.Rows())
	x2 := make(tensor.Vector, a2.Cols())
	u2 := make(tensor.Vector, a2.Rows())
	for i := range x1 {
		x1[i] = 0.3
	}
	for i := range u1 {
		u1[i] = 0.5
	}
	for i := range x2 {
		x2[i] = -0.2
	}
	for i := range u2 {
		u2[i] = 0.4
	}
	for i := 0; i < n; i++ {
		a1.Forward(x1)
		a2.Forward(x2)
		a1.Update(0.1, u1, x1)
		a2.Update(-0.1, u2, x2)
	}
}

// TestEngineStateRoundTrip: an engine checkpointed mid-campaign and restored
// onto rebuilt arrays must continue the fault history bit-identically — same
// stats, same open lines, same device trajectories.
func TestEngineStateRoundTrip(t *testing.T) {
	e := NewEngine(chaoticPlan(), rngutil.New(5))
	a1, a2 := statePair(1, 2)
	e.Attach(a1)
	e.Attach(a2)
	drive(a1, a2, 40)

	blob, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st1, st2 := a1.ExportState(), a2.ExportState()

	// Rebuild from scratch, as a resuming run does: fresh engine with the
	// same construction seed, fresh arrays, same attach order, then import.
	f := NewEngine(chaoticPlan(), rngutil.New(5))
	b1, b2 := statePair(11, 12) // different seeds: import must overwrite
	f.Attach(b1)
	f.Attach(b2)
	if err := b1.ImportState(st1); err != nil {
		t.Fatal(err)
	}
	if err := b2.ImportState(st2); err != nil {
		t.Fatal(err)
	}
	if err := f.ImportState(blob); err != nil {
		t.Fatal(err)
	}

	// Both campaigns continue; histories must stay identical.
	drive(a1, a2, 40)
	drive(b1, b2, 40)
	if !reflect.DeepEqual(e.Stats(), f.Stats()) {
		t.Fatalf("stats diverged:\n%+v\nvs\n%+v", e.Stats(), f.Stats())
	}
	for i, pair := range [][2]*crossbar.Array{{a1, b1}, {a2, b2}} {
		ra, ca := openLines(e, pair[0])
		rb, cb := openLines(f, pair[1])
		if ra != rb || ca != cb {
			t.Fatalf("array %d open lines diverged: (%d,%d) vs (%d,%d)", i, ra, ca, rb, cb)
		}
		wa, wb := pair[0].Weights(), pair[1].Weights()
		for k := range wa.Data {
			if wa.Data[k] != wb.Data[k] {
				t.Fatalf("array %d weights diverged after restore", i)
			}
		}
	}
}

// TestEngineImportRejectsWrongAttachCount pins the positional contract.
func TestEngineImportRejectsWrongAttachCount(t *testing.T) {
	e := NewEngine(chaoticPlan(), rngutil.New(9))
	a1, a2 := statePair(1, 2)
	e.Attach(a1)
	e.Attach(a2)
	blob, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	f := NewEngine(chaoticPlan(), rngutil.New(9))
	b1, _ := statePair(1, 2)
	f.Attach(b1)
	if err := f.ImportState(blob); err == nil {
		t.Fatal("import with mismatched attach count must fail")
	}
}
