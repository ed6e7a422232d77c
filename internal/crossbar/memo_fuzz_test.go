package crossbar_test

import (
	"math"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/faults"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// FuzzReadMemo decodes bytes into a device model, an update mode and a
// script of array operations on a small array, and after every hook-free
// Forward requires the exact MVM of the current weights, bit for bit, with
// Counts.Forwards grown by exactly one: whatever ran between two reads, the
// read memo must never answer with a stale output. The script draws on
// every entry point that can change a weight, a faults.Engine attached and
// detached mid-script, a re-import of an earlier export, and the
// operations that keep the memo: Backward reads, updates with an all-zero
// u, and a rotation through all three read inputs, which the two-entry
// memo cannot hold at once. One of the three read inputs differs from
// another only by a −0.
func FuzzReadMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 3, 15, 0, 0, 10, 0, 0, 1, 13, 0, 0, 0, 0, 14, 0, 0})
	f.Add([]byte{4, 0, 0, 1, 0, 2, 9, 0, 0, 1, 12, 0, 2, 0, 16, 0, 4, 0, 17, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 3, 7, 0, 1, 6, 0, 5, 2, 0, 0, 11, 5, 0, 0})
	f.Add([]byte{3, 0, 13, 0, 0, 0, 8, 1, 0, 1, 14, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 18, 0, 19, 0, 0, 1, 20, 3, 0, 0, 2, 3, 18, 1, 0, 2})
	f.Add([]byte{2, 0, 18, 0, 19, 1, 20, 4, 18, 0, 12, 5, 18, 0, 3, 5, 0, 0})
	models := []func() crossbar.Model{
		func() crossbar.Model { return crossbar.Ideal() },
		func() crossbar.Model { return crossbar.RRAM() },
		func() crossbar.Model { return crossbar.PCM() },
		func() crossbar.Model { return crossbar.FeFET() },
		func() crossbar.Model { return crossbar.ECRAM() },
	}
	const rows, cols, maxOps = 4, 3, 64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := crossbar.DefaultConfig()
		if data[1]&1 == 1 {
			cfg.Update = crossbar.UpdateExpected
		}
		model := models[int(data[0])%len(models)]()
		a := crossbar.NewArray(rows, cols, model, cfg, rngutil.New(uint64(data[0])))
		lo, hi := model.WeightBounds()
		rng := rngutil.New(7)
		target := tensor.NewMatrix(rows, cols)
		for i := range target.Data {
			target.Data[i] = rng.Uniform(lo/2, hi/2)
		}
		a.Program(target, 60)
		xs := [3]tensor.Vector{{0.5, 0, -0.25}, {-0.75, 0.5, 1}, {0.5, math.Copysign(0, -1), -0.25}}
		u := tensor.Vector{0.5, -1, 0.25, 0.75}
		zeroU := make(tensor.Vector, rows)
		hooked := false
		read := func(op int, x tensor.Vector) {
			before := a.Counts.Forwards
			y := a.Forward(x)
			if got := a.Counts.Forwards - before; got != 1 {
				t.Fatalf("op %d: Forward counted %d reads, want 1", op, got)
			}
			if hooked {
				return
			}
			want := a.Weights().MatVec(x)
			for r := range y {
				if math.Float64bits(y[r]) != math.Float64bits(want[r]) {
					t.Fatalf("op %d: hook-free Forward(%v)[%d] = %v, exact MVM %v", op, x, r, y[r], want[r])
				}
			}
		}
		engine := faults.NewEngine(faults.Plan{
			StuckPerOp: 0.3, StuckValueStd: 0.2, ReadUpset: 0.5, UpsetMag: 0.5,
			WriteFail: 0.2, DriftBurstEvery: 3, DriftBurstDt: 50,
		}, rngutil.New(9))
		saved := a.ExportState()
		script := data[2:]
		for op := 0; len(script) >= 2 && op < maxOps; op++ {
			kind, arg := script[0]%21, int(script[1])
			script = script[2:]
			i, j := arg%rows, (arg/rows)%cols
			switch kind {
			case 0, 1:
				read(op, xs[arg%len(xs)])
			case 2:
				a.Update(0.05*float64(arg%7-3), u, xs[arg%len(xs)])
			case 3:
				a.UpdateReference(0.05*float64(arg%7-3), u, xs[arg%len(xs)])
			case 4:
				a.UpdateDeviceExact(i, j, 1+arg%5, arg&1 == 0)
			case 5:
				a.PulseAll(1+arg%3, arg&1 == 0)
			case 6:
				a.AlternatePulseAll(1 + arg%2)
			case 7:
				a.ResetAll()
			case 8:
				a.Program(target, arg%40)
			case 9:
				a.ProgramDevice(i, j, target.At(i, j), arg%40)
			case 10:
				a.ProgramVerify(target, crossbar.ProgramPolicy{MaxPulses: 1 + arg%20, MaxRetries: arg % 2})
			case 11:
				a.AdvanceTime(float64(arg))
			case 12:
				a.Freeze(i, j)
			case 13:
				a.FreezeAt(i, j, float64(arg%9-4)/8)
			case 14:
				engine.Attach(a)
				hooked = true
			case 15:
				a.SetFaultHook(nil)
				hooked = false
			case 16:
				saved = a.ExportState()
			case 17:
				if err := a.ImportState(saved); err != nil {
					t.Fatalf("op %d: re-import of an earlier export: %v", op, err)
				}
			case 18:
				for r := range xs {
					read(op, xs[(arg+r)%len(xs)])
				}
			case 19:
				a.Backward(u)
			case 20:
				a.Update(0.05*float64(arg%7-3), zeroU, xs[arg%len(xs)])
			}
		}
	})
}
