package crossbar

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// opLog is a FaultHook that records the op stream it observes.
type opLog struct {
	NopHook
	ops []string
}

func (h *opLog) BeginOp(a *Array, op OpKind) {
	h.ops = append(h.ops, fmt.Sprintf("%dx%d %v", a.Rows(), a.Cols(), op))
}

func (h *opLog) FilterOutput(_ *Array, op OpKind, y tensor.Vector) {
	h.ops = append(h.ops, fmt.Sprintf("%v out %v", op, y))
}

// TestSkipBackwardMatchesBackward drives twin arrays through the same
// forward/backward/update sequence, one discarding Backward's result and
// one calling SkipBackward, and requires the full exported state (devices,
// mirror, random-stream position, op counts) and any hook's op stream to
// agree after every step.
func TestSkipBackwardMatchesBackward(t *testing.T) {
	cases := []struct {
		name   string
		model  Model
		cfg    Config
		hooked bool
	}{
		{"rram", RRAM(), DefaultConfig(), false},
		{"rram-hooked", RRAM(), DefaultConfig(), true},
		{"pcm", PCM(), DefaultConfig(), false},
		{"ideal-linear", Ideal(), DefaultConfig(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := NewArray(6, 5, tc.model, tc.cfg, rngutil.New(11))
			got := NewArray(6, 5, tc.model, tc.cfg, rngutil.New(11))
			var refLog, gotLog opLog
			if tc.hooked {
				ref.SetFaultHook(&refLog)
				got.SetFaultHook(&gotLog)
			}
			rng := rngutil.New(5)
			for step := 0; step < 20; step++ {
				x := tensor.NewVector(5)
				d := tensor.NewVector(6)
				for j := range x {
					x[j] = rng.Uniform(-1, 1)
				}
				for i := range d {
					d[i] = rng.Uniform(-1, 1)
				}
				for _, a := range []*Array{ref, got} {
					a.Forward(x)
				}
				ref.Backward(d)
				got.SkipBackward(d)
				for _, a := range []*Array{ref, got} {
					a.Update(0.1, d, x)
				}
				if !reflect.DeepEqual(ref.ExportState(), got.ExportState()) {
					t.Fatalf("step %d: SkipBackward left a different array state than Backward", step)
				}
			}
			if !reflect.DeepEqual(refLog.ops, gotLog.ops) {
				t.Fatalf("hook op streams differ:\n  Backward     %v\n  SkipBackward %v", refLog.ops, gotLog.ops)
			}
			if tc.hooked && !strings.Contains(strings.Join(gotLog.ops, "\n"), "backward out") {
				t.Fatal("a hooked SkipBackward must run the full backward read")
			}
		})
	}
}

// panicOf returns the value f panics with (nil when it returns).
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestSkipBackwardShapeMismatch pins that SkipBackward rejects a wrong-size
// vector exactly as Backward does, leaving no count behind, on both the
// skipping and the hooked path.
func TestSkipBackwardShapeMismatch(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		a := NewArray(4, 3, Ideal(), DefaultConfig(), rngutil.New(2))
		if hooked {
			a.SetFaultHook(&opLog{})
		}
		before := a.ExportState()
		want := panicOf(func() { a.Backward(tensor.NewVector(3)) })
		got := panicOf(func() { a.SkipBackward(tensor.NewVector(3)) })
		if want == nil || got != want {
			t.Fatalf("hooked=%v: SkipBackward panicked with %v, Backward with %v", hooked, got, want)
		}
		if !reflect.DeepEqual(before, a.ExportState()) {
			t.Fatalf("hooked=%v: a rejected SkipBackward changed the array state", hooked)
		}
		// The guard was released: the array still works.
		a.SkipBackward(tensor.NewVector(4))
		if a.Counts.Backwards != 1 {
			t.Fatalf("hooked=%v: Backwards = %d after one good call", hooked, a.Counts.Backwards)
		}
	}
}

// TestSkipBackwardHonorsBusyGuard pins the single-writer contract on the
// skipping path: a SkipBackward overlapping an in-flight op panics.
func TestSkipBackwardHonorsBusyGuard(t *testing.T) {
	a := NewArray(4, 4, Ideal(), DefaultConfig(), rngutil.New(3))
	a.acquire() // simulate an op in flight
	defer a.release()
	v := panicOf(func() { a.SkipBackward(tensor.NewVector(4)) })
	if s, _ := v.(string); !strings.Contains(s, "concurrent Array access") {
		t.Fatalf("SkipBackward during an in-flight op panicked with %v, want the busy guard", v)
	}
	if a.Counts.Backwards != 0 {
		t.Fatal("a guarded SkipBackward must not count")
	}
}
