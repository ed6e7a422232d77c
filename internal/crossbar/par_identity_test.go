package crossbar

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// scriptVec fills a length-n vector from rng, leaving exact zeros every
// zeroEvery elements so the backward kernel's skip path is exercised.
func scriptVec(n, zeroEvery int, rng *rngutil.Source) tensor.Vector {
	v := make(tensor.Vector, n)
	for i := range v {
		if zeroEvery > 0 && i%zeroEvery == 0 {
			continue
		}
		v[i] = rng.NormFloat64()
	}
	return v
}

// runOpScript builds a 97×131 array (multiple of neither the tile span nor
// the 4-row kernel block) and drives a fixed mixed-op script through it,
// returning every op output plus the final exported state.
func runOpScript(model Model, cfg Config) ([]tensor.Vector, ArrayState) {
	return runOpScriptWith(model, cfg, (*Array).Update)
}

// runOpScriptWith is runOpScript with the rank-1 updates issued through
// update (Update or UpdateReference).
func runOpScriptWith(model Model, cfg Config, update func(a *Array, scale float64, u, v tensor.Vector)) ([]tensor.Vector, ArrayState) {
	a := NewArray(97, 131, model, cfg, rngutil.New(777))
	data := rngutil.New(3)
	var outs []tensor.Vector
	for step := 0; step < 4; step++ {
		x := scriptVec(131, 6, data)
		outs = append(outs, a.Forward(x))
		outs = append(outs, a.Backward(scriptVec(97, 5, data)))
		update(a, 0.02, scriptVec(97, 4, data), scriptVec(131, 3, data))
		a.UpdateDeviceExact(step, step, 3, step%2 == 0)
		outs = append(outs, a.Forward(x))
	}
	a.PulseAll(1, true)
	a.AdvanceTime(5)
	outs = append(outs, a.Forward(scriptVec(131, 0, data)))
	return outs, a.ExportState()
}

// TestArrayWorkerCountInvariance is the tile engine's acceptance property
// on real arrays: the identical op script produces bit-identical outputs,
// counters, device state, and RNG position at every worker count, for both
// update modes, for noiseless and noisy devices (RRAM cycle noise draws one
// normal per pulse from the per-tile streams), and with the full periphery
// (DAC/ADC quantization, read noise, IR drop, stuck devices) enabled.
func TestArrayWorkerCountInvariance(t *testing.T) {
	defer par.SetWorkers(0)
	noisy := DefaultConfig()
	noisy.ReadNoise = 0.02
	noisy.DACBits = 6
	noisy.ADCBits = 8
	noisy.IRDrop = 0.05
	noisy.StuckFraction = 0.05
	expected := DefaultConfig()
	expected.Update = UpdateExpected
	cases := []struct {
		name  string
		model Model
		cfg   Config
	}{
		{"ideal-stochastic", Ideal(), DefaultConfig()},
		{"ideal-expected", Ideal(), expected},
		{"rram-stochastic", RRAM(), DefaultConfig()},
		{"rram-periphery", RRAM(), noisy},
		{"pcm-stochastic", PCM(), DefaultConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			par.SetWorkers(1)
			wantOuts, wantState := runOpScript(tc.model, tc.cfg)
			for _, w := range []int{2, 8} {
				par.SetWorkers(w)
				gotOuts, gotState := runOpScript(tc.model, tc.cfg)
				if len(gotOuts) != len(wantOuts) {
					t.Fatalf("workers=%d: %d outputs, want %d", w, len(gotOuts), len(wantOuts))
				}
				for o := range wantOuts {
					for i := range wantOuts[o] {
						if math.Float64bits(gotOuts[o][i]) != math.Float64bits(wantOuts[o][i]) {
							t.Fatalf("workers=%d: output %d element %d = %x, want %x",
								w, o, i, math.Float64bits(gotOuts[o][i]), math.Float64bits(wantOuts[o][i]))
						}
					}
				}
				if !reflect.DeepEqual(gotState, wantState) {
					t.Fatalf("workers=%d: exported state diverged from serial run", w)
				}
			}
		})
	}
}

// TestForwardBatchBitIdenticalToSequential drives the same inputs through
// one array sequentially and through a twin array (same seed) batched, with
// read noise enabled so the periphery randomness sequence is part of the
// contract, and requires bit-identical outputs and op counters.
func TestForwardBatchBitIdenticalToSequential(t *testing.T) {
	defer par.SetWorkers(0)
	cfg := DefaultConfig()
	cfg.ReadNoise = 0.01
	cfg.DACBits = 7
	seq := NewArray(70, 90, RRAM(), cfg, rngutil.New(55))
	data := rngutil.New(8)
	xs := make([]tensor.Vector, 9)
	for s := range xs {
		xs[s] = scriptVec(90, 4, data)
	}
	var want []tensor.Vector
	for _, x := range xs {
		want = append(want, seq.Forward(x))
	}
	for _, w := range []int{1, 2, 8} {
		par.SetWorkers(w)
		bat := NewArray(70, 90, RRAM(), cfg, rngutil.New(55))
		got := bat.ForwardBatch(xs)
		for s := range want {
			for i := range want[s] {
				if math.Float64bits(got[s][i]) != math.Float64bits(want[s][i]) {
					t.Fatalf("workers=%d: sample %d element %d diverged from sequential", w, s, i)
				}
			}
		}
		if bat.Counts != seq.Counts {
			t.Fatalf("workers=%d: counts %+v, want %+v", w, bat.Counts, seq.Counts)
		}
	}
}

// TestParallelOpsDuringSnapshot hammers tiled forwards and updates on an
// array at workers=8 while another goroutine repeatedly takes ExportState
// snapshots, with ownership handed off through a mutex exactly as
// internal/serve.Replica does. Under -race this proves the engine's tile
// goroutines never outlive the op that spawned them: every tile write
// happens-before the mutex release, so the snapshot can never observe a
// torn op.
func TestParallelOpsDuringSnapshot(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(8)
	a := NewArray(128, 96, RRAM(), DefaultConfig(), rngutil.New(12))
	data := rngutil.New(4)
	x := scriptVec(96, 3, data)
	u := scriptVec(128, 4, data)
	v := scriptVec(96, 5, data)

	var mu sync.Mutex
	var stop atomic.Bool
	var snaps atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			mu.Lock()
			st := a.ExportState()
			mu.Unlock()
			if st.Rows != 128 {
				t.Error("snapshot with wrong geometry")
				return
			}
			snaps.Add(1)
		}
	}()
	for i := 0; i < 300; i++ {
		mu.Lock()
		a.Forward(x)
		a.Update(0.01, u, v)
		mu.Unlock()
	}
	stop.Store(true)
	<-done
	if snaps.Load() == 0 {
		t.Fatal("no snapshots completed during the op hammer")
	}
}
