package crossbar

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// hookEvent is one recorded FaultHook callback.
type hookEvent struct {
	arr   *Array
	op    OpKind
	phase string // "begin", "input", "output", "pulses"
}

// recordingHook logs every callback; it synchronizes its own state so one
// instance can be shared by arrays driven from different goroutines, as the
// FaultHook doc requires.
type recordingHook struct {
	NopHook
	mu     sync.Mutex
	events []hookEvent
}

func (h *recordingHook) log(a *Array, op OpKind, phase string) {
	h.mu.Lock()
	h.events = append(h.events, hookEvent{arr: a, op: op, phase: phase})
	h.mu.Unlock()
}

func (h *recordingHook) BeginOp(a *Array, op OpKind) { h.log(a, op, "begin") }
func (h *recordingHook) FilterInput(a *Array, op OpKind, _ tensor.Vector) {
	h.log(a, op, "input")
}
func (h *recordingHook) FilterOutput(a *Array, op OpKind, _ tensor.Vector) {
	h.log(a, op, "output")
}
func (h *recordingHook) FilterPulses(a *Array, _, _, k int, _ bool) int {
	h.log(a, OpUpdate, "pulses")
	return k
}

// checkWellFormed asserts that a per-array event stream is a concatenation
// of well-formed op sequences: begin → input → output for reads, and
// begin → pulses* for updates.
func checkWellFormed(t *testing.T, events []hookEvent) {
	t.Helper()
	i := 0
	for i < len(events) {
		if events[i].phase != "begin" {
			t.Fatalf("event %d: got phase %q, want op to start with \"begin\"", i, events[i].phase)
		}
		op := events[i].op
		i++
		switch op {
		case OpForward, OpBackward:
			if i >= len(events) || events[i].phase != "input" || events[i].op != op {
				t.Fatalf("event %d: %s op missing FilterInput after BeginOp", i, op)
			}
			i++
			if i >= len(events) || events[i].phase != "output" || events[i].op != op {
				t.Fatalf("event %d: %s op missing FilterOutput after FilterInput", i, op)
			}
			i++
		case OpUpdate:
			for i < len(events) && events[i].phase == "pulses" {
				i++
			}
		}
	}
}

// TestFaultHookOrdering pins the documented single-operation call sequence:
// BeginOp, then FilterInput, then FilterOutput (reads) or FilterPulses
// (updates), with nothing interleaved.
func TestFaultHookOrdering(t *testing.T) {
	rng := rngutil.New(7)
	a := NewArray(4, 3, Ideal(), DefaultConfig(), rng)
	h := &recordingHook{}
	a.SetFaultHook(h)

	x := tensor.Vector{0.2, -0.1, 0.4}
	d := tensor.Vector{0.1, 0.2, -0.3, 0.05}
	a.Forward(x)
	a.Backward(d)
	a.Update(0.1, d, x)

	checkWellFormed(t, h.events)
	wantOps := []OpKind{OpForward, OpBackward, OpUpdate}
	var gotOps []OpKind
	for _, e := range h.events {
		if e.phase == "begin" {
			gotOps = append(gotOps, e.op)
		}
	}
	if len(gotOps) != len(wantOps) {
		t.Fatalf("got %d ops, want %d", len(gotOps), len(wantOps))
	}
	for i := range wantOps {
		if gotOps[i] != wantOps[i] {
			t.Fatalf("op %d = %v, want %v", i, gotOps[i], wantOps[i])
		}
	}
	// The update above has non-zero inputs everywhere, so at least one pulse
	// train must have reached the write path.
	pulses := 0
	for _, e := range h.events {
		if e.phase == "pulses" {
			pulses++
		}
	}
	if pulses == 0 {
		t.Fatal("update issued no FilterPulses callbacks")
	}
}

// TestFaultHookOrderingConcurrent drives two arrays, each from its own
// goroutine (respecting the per-array single-writer contract), through one
// shared synchronized hook, and asserts every per-array subsequence of the
// interleaved log is still well-formed.
func TestFaultHookOrderingConcurrent(t *testing.T) {
	h := &recordingHook{}
	arrays := make([]*Array, 2)
	for i := range arrays {
		arrays[i] = NewArray(6, 5, Ideal(), DefaultConfig(), rngutil.New(uint64(100+i)))
		arrays[i].SetFaultHook(h)
	}

	var wg sync.WaitGroup
	for i, a := range arrays {
		wg.Add(1)
		go func(i int, a *Array) {
			defer wg.Done()
			rng := rngutil.New(uint64(999 + i))
			x := make(tensor.Vector, a.Cols())
			d := make(tensor.Vector, a.Rows())
			for it := 0; it < 200; it++ {
				for j := range x {
					x[j] = rng.Uniform(-1, 1)
				}
				for j := range d {
					d[j] = rng.Uniform(-1, 1)
				}
				a.Forward(x)
				a.Backward(d)
				a.Update(0.05, d, x)
			}
		}(i, a)
	}
	wg.Wait()

	for i, a := range arrays {
		var mine []hookEvent
		for _, e := range h.events {
			if e.arr == a {
				mine = append(mine, e)
			}
		}
		if len(mine) == 0 {
			t.Fatalf("array %d produced no hook events", i)
		}
		t.Run(fmt.Sprintf("array-%d", i), func(t *testing.T) { checkWellFormed(t, mine) })
	}
}

// TestArraySingleWriterGuard documents the fail-fast behaviour: entering
// the array from a hook-free second operation while one is in flight
// panics instead of racing. The reentrancy is simulated with a hook that
// calls back into a guarded method.
type reentrantHook struct{ NopHook }

func (reentrantHook) FilterOutput(a *Array, _ OpKind, _ tensor.Vector) {
	a.Forward(make(tensor.Vector, a.Cols())) // illegal: second op inside the first
}

func TestArraySingleWriterGuard(t *testing.T) {
	a := NewArray(2, 2, Ideal(), DefaultConfig(), rngutil.New(1))
	a.SetFaultHook(reentrantHook{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from reentrant guarded operation")
		}
	}()
	a.Forward(tensor.Vector{1, 0})
}

// TestCellAccessorsCheckIndices pins that every (i, j) accessor panics on
// an index outside the array instead of silently addressing another cell
// (Freeze(0, cols) used to freeze cell (1, 0)), and mutates nothing.
func TestCellAccessorsCheckIndices(t *testing.T) {
	ops := map[string]func(a *Array, i, j int){
		"Freeze":            func(a *Array, i, j int) { a.Freeze(i, j) },
		"FreezeAt":          func(a *Array, i, j int) { a.FreezeAt(i, j, 0.5) },
		"IsStuck":           func(a *Array, i, j int) { a.IsStuck(i, j) },
		"DeviceWeight":      func(a *Array, i, j int) { a.DeviceWeight(i, j) },
		"UpdateDeviceExact": func(a *Array, i, j int) { a.UpdateDeviceExact(i, j, 1, true) },
		"ProgramDevice":     func(a *Array, i, j int) { a.ProgramDevice(i, j, 0.5, 10) },
	}
	for name, op := range ops {
		for _, ij := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 4}, {0, 12}} {
			a := NewArray(3, 4, Ideal(), DefaultConfig(), rngutil.New(1))
			before := a.ExportState()
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s(%d, %d) on a 3×4 array did not panic", name, ij[0], ij[1])
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, name+" index") {
						t.Fatalf("%s(%d, %d) panicked with %q", name, ij[0], ij[1], msg)
					}
				}()
				op(a, ij[0], ij[1])
			}()
			if got := a.ExportState(); !reflect.DeepEqual(before, got) {
				t.Fatalf("%s(%d, %d) mutated the array before panicking", name, ij[0], ij[1])
			}
		}
	}
}

// NopHook is a FaultHook that does nothing; embed it to implement only a
// subset of the interface.
type NopHook struct{}

// BeginOp implements FaultHook.
func (NopHook) BeginOp(*Array, OpKind) {}

// FilterInput implements FaultHook.
func (NopHook) FilterInput(*Array, OpKind, tensor.Vector) {}

// FilterOutput implements FaultHook.
func (NopHook) FilterOutput(*Array, OpKind, tensor.Vector) {}

// FilterPulses implements FaultHook.
func (NopHook) FilterPulses(_ *Array, _, _, k int, _ bool) int { return k }
