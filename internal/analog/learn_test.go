package analog_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/analog"
	"repro/internal/crossbar"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// The storage a training network is built on skips the bottom layer's
// transposed MVM only through these implementations.
var (
	_ nn.BackwardSkipper = (*crossbar.Array)(nil)
	_ nn.BackwardSkipper = (*faults.RemappedArray)(nil)
	_ nn.BackwardSkipper = (*nn.DenseMat)(nil)
)

// referenceTrainStep is MLP.TrainStep with every layer, the bottom one
// included, running the full backward cycle through MLP.Backward and the
// input gradient thrown away.
func referenceTrainStep(m *nn.MLP, x tensor.Vector, label int, lr float64) float64 {
	probs := m.Forward(x)
	loss := nn.CrossEntropy(probs, label)
	dy := probs.Clone()
	dy[label] -= 1
	m.Backward(dy, lr)
	return loss
}

// eventLog is a FaultHook that records every callback it sees, with the
// vectors it is handed, before passing the call on to an inner hook. Arrays
// are named by first appearance, so twin runs produce comparable logs.
type eventLog struct {
	inner  crossbar.FaultHook
	ids    map[*crossbar.Array]int
	events []string
}

func newEventLog(inner crossbar.FaultHook) *eventLog {
	return &eventLog{inner: inner, ids: map[*crossbar.Array]int{}}
}

func (l *eventLog) add(a *crossbar.Array, format string, args ...any) {
	id, ok := l.ids[a]
	if !ok {
		id = len(l.ids)
		l.ids[a] = id
	}
	l.events = append(l.events, fmt.Sprintf("a%d ", id)+fmt.Sprintf(format, args...))
}

func (l *eventLog) BeginOp(a *crossbar.Array, op crossbar.OpKind) {
	l.add(a, "begin %v", op)
	l.inner.BeginOp(a, op)
}

func (l *eventLog) FilterInput(a *crossbar.Array, op crossbar.OpKind, x tensor.Vector) {
	l.inner.FilterInput(a, op, x)
	l.add(a, "in %v %v", op, x)
}

func (l *eventLog) FilterOutput(a *crossbar.Array, op crossbar.OpKind, y tensor.Vector) {
	l.inner.FilterOutput(a, op, y)
	l.add(a, "out %v %v", op, y)
}

func (l *eventLog) FilterPulses(a *crossbar.Array, row, col, k int, up bool) int {
	n := l.inner.FilterPulses(a, row, col, k, up)
	l.add(a, "pulses %d,%d %d %v -> %d", row, col, k, up, n)
	return n
}

// rig is one network under test plus what to compare after training: a
// snapshot of all of its state, and the fault-hook event log when one is
// attached.
type rig struct {
	net   *nn.MLP
	state func() any
	log   *eventLog
}

var learnSizes = []int{12, 10, 8, 4}

// sessionRig trains on the arrays of an analog session; with plan non-nil
// a faults.Engine, wrapped in an event log, is attached before the first
// array is built.
func sessionRig(opts analog.Options, plan *faults.Plan) func(seed uint64) rig {
	return func(seed uint64) rig {
		rng := rngutil.New(seed)
		sess := analog.NewSession(opts, rng.Child("session"))
		var eng *faults.Engine
		var log *eventLog
		if plan != nil {
			eng = faults.NewEngine(*plan, rng.Child("faults"))
			log = newEventLog(eng)
			sess.AttachHook(log)
		}
		net := nn.NewMLP(learnSizes, nn.TanhAct, nn.SoftmaxAct, sess.Factory())
		state := func() any {
			var arrays []crossbar.ArrayState
			for _, a := range sess.Arrays() {
				arrays = append(arrays, a.ExportState())
			}
			var engine []byte
			if eng != nil {
				var err error
				if engine, err = eng.ExportState(); err != nil {
					panic(err)
				}
			}
			return []any{arrays, engine}
		}
		return rig{net: net, state: state, log: log}
	}
}

// digitalRig trains on digital storage from factory; the state is every
// layer's weight matrix.
func digitalRig(factory func(rng *rngutil.Source) nn.MatFactory, weights func(nn.Mat) []float64) func(seed uint64) rig {
	return func(seed uint64) rig {
		net := nn.NewMLP(learnSizes, nn.TanhAct, nn.SoftmaxAct, factory(rngutil.New(seed)))
		state := func() any {
			var w [][]float64
			for _, l := range net.Layers {
				w = append(w, append([]float64(nil), weights(l.W)...))
			}
			return w
		}
		return rig{net: net, state: state}
	}
}

// remappedRig trains on redundant-column arrays with a faults.Engine
// attached to the physical arrays.
func remappedRig(seed uint64) rig {
	rng := rngutil.New(seed)
	eng := faults.NewEngine(faults.Plan{StuckPerOp: 0.2, ReadUpset: 0.02, UpsetMag: 0.3}, rng.Child("faults"))
	log := newEventLog(eng)
	var arrays []*faults.RemappedArray
	factory := func(rows, cols int) nn.Mat {
		r := faults.NewRemappedArray(rows, cols, 2, crossbar.RRAM(), crossbar.DefaultConfig(), rng.Child(fmt.Sprintf("layer%d", len(arrays))))
		r.Arr.SetFaultHook(log)
		arrays = append(arrays, r)
		return r
	}
	net := nn.NewMLP(learnSizes, nn.TanhAct, nn.SoftmaxAct, factory)
	state := func() any {
		var st []crossbar.ArrayState
		for _, r := range arrays {
			st = append(st, r.Arr.ExportState())
		}
		engine, err := eng.ExportState()
		if err != nil {
			panic(err)
		}
		return []any{st, engine}
	}
	return rig{net: net, state: state, log: log}
}

// TestTrainStepMatchesFullBackward is the differential test of the bottom
// layer's skipped backward cycle: for every storage configuration, a
// network trained with TrainStep (which goes through MLP.Learn) must match,
// bit for bit, a twin trained through MLP.Backward with the input gradient
// discarded — the loss sequence, every weight, the full exported array
// state (devices, mirror, random-stream position, op counts), the fault
// engine's state and the op stream a hook observes. The hooked
// configurations therefore also pin that SkipBackward runs the full
// backward read whenever that read is observable.
func TestTrainStepMatchesFullBackward(t *testing.T) {
	rram := func(mode analog.Mode) analog.Options {
		opts := analog.DefaultOptions(crossbar.RRAM(), mode)
		opts.SymmetrizeIters = 40
		return opts
	}
	plan := &faults.Plan{StuckPerOp: 0.3, ReadUpset: 0.02, UpsetMag: 0.3, WriteFail: 0.05, LineOpenPerOp: 0.01}
	withModel := func(m crossbar.Model, mode analog.Mode) analog.Options {
		opts := rram(mode)
		opts.Model = m
		return opts
	}
	dense := func(w nn.Mat) []float64 { return w.(*nn.DenseMat).M.Data }
	cases := []struct {
		name  string
		build func(seed uint64) rig
	}{
		{"rram", sessionRig(rram(analog.PlainSGD), nil)},
		{"rram-faults", sessionRig(rram(analog.PlainSGD), plan)},
		{"pcm", sessionRig(withModel(crossbar.PCM(), analog.PlainSGD), nil)},
		{"ideal-linear", sessionRig(withModel(crossbar.Ideal(), analog.PlainSGD), nil)},
		{"zero-shift", sessionRig(rram(analog.ZeroShift), nil)},
		{"tiki-taka", sessionRig(rram(analog.TikiTaka), nil)},
		{"tiki-taka-faults", sessionRig(rram(analog.TikiTaka), plan)},
		{"mixed-precision", sessionRig(rram(analog.MixedPrecision), nil)},
		{"remapped-faults", remappedRig},
		{"dense", digitalRig(nn.DenseFactory, dense)},
		{"drop-connect", digitalRig(func(rng *rngutil.Source) nn.MatFactory {
			return analog.DropConnectFactory(0.2, rng)
		}, func(w nn.Mat) []float64 { return w.(*analog.DropConnectMat).Inner.M.Data })},
	}
	const steps = 30
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := tc.build(7), tc.build(7)
			data := rngutil.New(3)
			for step := 0; step < steps; step++ {
				x := tensor.NewVector(learnSizes[0])
				for j := range x {
					x[j] = data.Uniform(-1, 1)
				}
				label := data.Intn(learnSizes[len(learnSizes)-1])
				lRef := referenceTrainStep(ref.net, x, label, 0.1)
				lGot := got.net.TrainStep(x, label, 0.1)
				if math.Float64bits(lRef) != math.Float64bits(lGot) {
					t.Fatalf("step %d: loss %v, full-backward reference %v", step, lGot, lRef)
				}
			}
			if !reflect.DeepEqual(ref.state(), got.state()) {
				t.Fatal("state after training differs from the full-backward reference")
			}
			if ref.log == nil {
				return
			}
			if len(ref.log.events) != len(got.log.events) {
				t.Fatalf("hook saw %d events, reference %d", len(got.log.events), len(ref.log.events))
			}
			for i := range ref.log.events {
				if ref.log.events[i] != got.log.events[i] {
					t.Fatalf("hook event %d: %s, reference %s", i, got.log.events[i], ref.log.events[i])
				}
			}
		})
	}
}
