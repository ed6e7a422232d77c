package nn

import (
	"reflect"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// callLog records which cycles each spied layer ran, in order.
type callLog []string

// spyMat passes every cycle on to a dense matrix and records it. Embedding
// the Mat interface, not the *DenseMat, keeps DenseMat's SkipBackward off
// its method set.
type spyMat struct {
	Mat
	name string
	log  *callLog
}

func (s spyMat) Backward(d tensor.Vector) tensor.Vector {
	*s.log = append(*s.log, s.name+" backward")
	return s.Mat.Backward(d)
}

func (s spyMat) Update(scale float64, u, v tensor.Vector) {
	*s.log = append(*s.log, s.name+" update")
	s.Mat.Update(scale, u, v)
}

// skipSpyMat is a spyMat that also implements BackwardSkipper.
type skipSpyMat struct{ spyMat }

func (s skipSpyMat) SkipBackward(d tensor.Vector) {
	*s.log = append(*s.log, s.name+" skip")
	SkipBackward(s.Mat, d)
}

// TestTrainStepSkipsOnlyTheBottomBackward pins where TrainStep uses the
// skipping path: only the bottom layer's backward cycle goes through
// SkipBackward, every layer still updates after its backward cycle, and
// storage without the extension falls back to Backward.
func TestTrainStepSkipsOnlyTheBottomBackward(t *testing.T) {
	for _, skips := range []bool{true, false} {
		var log callLog
		idx := 0
		dense := DenseFactory(rngutil.New(1))
		factory := func(rows, cols int) Mat {
			idx++
			s := spyMat{Mat: dense(rows, cols), name: string(rune('0' + idx)), log: &log}
			if skips {
				return skipSpyMat{s}
			}
			return s
		}
		m := NewMLP([]int{4, 5, 3, 2}, TanhAct, SoftmaxAct, factory)
		m.TrainStep(tensor.Vector{0.1, -0.2, 0.3, 0.4}, 1, 0.1)
		bottom := "1 skip"
		if !skips {
			bottom = "1 backward"
		}
		want := callLog{"3 backward", "3 update", "2 backward", "2 update", bottom, "1 update"}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("skips=%v: cycles %v, want %v", skips, log, want)
		}
	}
}
