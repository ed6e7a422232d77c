package crossbar

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// allModels returns one instance of every device technology, including the
// drifting PCM pair whose differential legs must round-trip exactly.
func allModels() []Model {
	return []Model{Ideal(), RRAM(), PCM(), PCMProjected(), FeFET(), ECRAM()}
}

// scrambleArray drives an array through a representative slice of its
// lifetime — programming pulses, rank-1 updates, reads (which consume the
// array stream), drift, and a couple of run-time freezes — so exported
// states carry non-trivial device internals (PCM pairs mid-drift, FeFET
// wear counters, frozen corrupt values in the mirror).
func scrambleArray(a *Array, rng *rngutil.Source) {
	u := make(tensor.Vector, a.Rows())
	v := make(tensor.Vector, a.Cols())
	for i := range u {
		u[i] = rng.Uniform(-1, 1)
	}
	for j := range v {
		v[j] = rng.Uniform(-1, 1)
	}
	a.PulseAll(3, true)
	a.Update(0.2, u, v)
	a.Forward(v)
	a.Backward(u)
	a.AdvanceTime(137)
	a.Update(-0.1, u, v)
	a.Freeze(0, 0)
	a.FreezeAt(a.Rows()-1, a.Cols()-1, 0.42)
}

// TestArrayStateRoundTripAllModels is the checkpoint property at the array
// level: export → import into a freshly built twin → re-export must be
// byte-identical, and the twin must continue bit-identically (same reads,
// same update results) for every device technology.
func TestArrayStateRoundTripAllModels(t *testing.T) {
	for _, m := range allModels() {
		t.Run(m.Name(), func(t *testing.T) {
			cfg := DefaultConfig()
			a := NewArray(5, 4, m, cfg, rngutil.New(31))
			scrambleArray(a, rngutil.New(77))
			st := a.ExportState()
			// The scramble's updates draw from the array stream, so the
			// continuation below starts mid-stream.
			if st.RNG.Draws == 0 {
				t.Fatal("scramble left the array stream at its start")
			}

			// The twin is built from a different seed on purpose: import
			// must overwrite every piece of constructed state.
			b := NewArray(5, 4, m, cfg, rngutil.New(99))
			if err := b.ImportState(st); err != nil {
				t.Fatalf("ImportState: %v", err)
			}
			if got := b.ExportState(); !reflect.DeepEqual(st, got) {
				t.Fatalf("re-export differs from exported state:\n%+v\nvs\n%+v", st, got)
			}

			// Continuation must be bit-identical: same reads, same pulses.
			x := make(tensor.Vector, a.Cols())
			for j := range x {
				x[j] = 0.1 * float64(j+1)
			}
			// Restore a itself too, so both sides continue from st.
			if err := a.ImportState(st); err != nil {
				t.Fatalf("self ImportState: %v", err)
			}
			for step := 0; step < 3; step++ {
				ya, yb := a.Forward(x), b.Forward(x)
				for i := range ya {
					if ya[i] != yb[i] {
						t.Fatalf("step %d: forward diverged: %v vs %v", step, ya, yb)
					}
				}
				a.PulseAll(1, step%2 == 0)
				b.PulseAll(1, step%2 == 0)
			}
			wa, wb := a.Weights(), b.Weights()
			for i := range wa.Data {
				if wa.Data[i] != wb.Data[i] {
					t.Fatal("weights diverged after identical pulse sequences")
				}
			}
		})
	}
}

// TestImportStateRejectsMismatch pins that a state from the wrong shape,
// model, or device kind is rejected without partially mutating the array.
func TestImportStateRejectsMismatch(t *testing.T) {
	a := NewArray(3, 3, PCM(), DefaultConfig(), rngutil.New(1))
	before := a.ExportState()

	wrongShape := NewArray(2, 3, PCM(), DefaultConfig(), rngutil.New(2)).ExportState()
	if err := a.ImportState(wrongShape); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
	wrongModel := NewArray(3, 3, RRAM(), DefaultConfig(), rngutil.New(3)).ExportState()
	if err := a.ImportState(wrongModel); err == nil {
		t.Fatal("model mismatch must be rejected")
	}
	corrupt := a.ExportState()
	corrupt.Devices[4] = DeviceState{Kind: "pcm", F: []float64{1}} // truncated scalars
	if err := a.ImportState(corrupt); err == nil {
		t.Fatal("malformed device state must be rejected")
	}
	if got := a.ExportState(); !reflect.DeepEqual(before, got) {
		t.Fatal("rejected imports must not mutate the array")
	}
}

// TestImportStateRejectsMirrorDisagreement pins, per model, that a state
// whose mirror shows a yielding device at a weight other than the one its
// device state encodes is rejected before any mutation: such a state would
// make Update and UpdateReference diverge. The same disagreement on a stuck
// device is a corrupt-frozen value, which must be accepted and round-trip.
func TestImportStateRejectsMirrorDisagreement(t *testing.T) {
	for _, m := range allModels() {
		t.Run(m.Name(), func(t *testing.T) {
			a := NewArray(8, 8, m, DefaultConfig(), rngutil.New(5))
			st := a.ExportState()
			st.Mirror[5] += 0.5
			b := NewArray(8, 8, m, DefaultConfig(), rngutil.New(6))
			before := b.ExportState()
			if err := b.ImportState(st); err == nil {
				t.Fatal("a yielding device's mirror that disagrees with its state must be rejected")
			}
			if got := b.ExportState(); !reflect.DeepEqual(before, got) {
				t.Fatal("rejected import mutated the array")
			}
			st.Stuck[5] = true
			if err := b.ImportState(st); err != nil {
				t.Fatalf("corrupt-frozen stuck device rejected: %v", err)
			}
			if got := b.ExportState(); !reflect.DeepEqual(st, got) {
				t.Fatal("corrupt-frozen stuck device did not round-trip")
			}
		})
	}
}

// TestSnapshotDuringForwardReads is the satellite -race test: a checkpoint
// snapshot taken concurrently with forward reads, serialized by the same
// caller-side mutex serving uses (the busy guard turns an unserialized
// overlap into a panic), must never observe a torn write — every exported
// state is internally consistent: the mirror of a yielding device equals
// that device's weight.
func TestSnapshotDuringForwardReads(t *testing.T) {
	a := NewArray(8, 8, PCM(), DefaultConfig(), rngutil.New(17))
	var mu sync.Mutex // the Replica-style ownership handoff
	var stop atomic.Bool
	var wg sync.WaitGroup

	x := make(tensor.Vector, a.Cols())
	for j := range x {
		x[j] = 0.25
	}
	u := make(tensor.Vector, a.Rows())
	for i := range u {
		u[i] = 0.5
	}

	wg.Add(1)
	go func() { // writer: updates and reads
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			mu.Lock()
			a.Forward(x)
			a.Update(0.05, u, x)
			mu.Unlock()
		}
	}()

	snapshots := 0
	for i := 0; i < 200; i++ {
		mu.Lock()
		st := a.ExportState()
		mu.Unlock()
		snapshots++
		for idx := range st.Devices {
			if st.Stuck[idx] {
				continue
			}
			var w float64
			switch st.Devices[idx].Kind {
			case "pcm":
				w = st.Devices[idx].F[0] - st.Devices[idx].F[1]
			default:
				w = st.Devices[idx].F[0]
			}
			if math.Abs(w-st.Mirror[idx]) > 1e-15 {
				t.Fatalf("torn snapshot: device %d state %v vs mirror %v", idx, w, st.Mirror[idx])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
}

// TestSnapshotHonorsBusyGuard pins the fail-fast contract itself: an export
// racing an in-flight operation without caller serialization panics rather
// than returning a torn state.
func TestSnapshotHonorsBusyGuard(t *testing.T) {
	a := NewArray(4, 4, Ideal(), DefaultConfig(), rngutil.New(3))
	a.acquire() // simulate an op in flight
	defer a.release()
	defer func() {
		if recover() == nil {
			t.Fatal("ExportState during an in-flight op must panic (busy guard)")
		}
	}()
	a.ExportState()
}
