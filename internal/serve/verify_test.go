package serve

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/rngutil"
)

// TestVerifyPairCountsTwoReads: on a hook-free replica the second read of
// a verify pair is answered from each layer array's read memo, yet it is
// still accounted as a crossbar read, and the pair agrees.
func TestVerifyPairCountsTwoReads(t *testing.T) {
	golden, train, test := trainTestMLP(11)
	pipe := NewMLPPipeline(golden, train.X[:8], DefaultMLPPipelineConfig(), nil, rngutil.New(77))
	for _, x := range test.X[:6] {
		before := make([]int64, len(pipe.arrays))
		for li, arr := range pipe.arrays {
			before[li] = arr.Arr.Counts.Forwards
		}
		if _, ok := pipe.Infer(x, true); !ok {
			t.Fatal("the verify pair diverged on a hook-free replica")
		}
		for li, arr := range pipe.arrays {
			if got := arr.Arr.Counts.Forwards - before[li]; got != 2 {
				t.Fatalf("layer %d counted %d reads for one verified request, want 2", li, got)
			}
		}
	}
}

// TestVerifyFlagsReadUpsets: with a fault engine upsetting every read
// output, the two reads of a verify pair differ and most requests are
// flagged (a pair of draws can land close by chance); a hooked array never
// answers from the read memo, which would flag none.
func TestVerifyFlagsReadUpsets(t *testing.T) {
	golden, train, test := trainTestMLP(11)
	engine := faults.NewEngine(faults.Plan{ReadUpset: 1, UpsetMag: 3}, rngutil.New(5))
	pipe := NewMLPPipeline(golden, train.X[:8], DefaultMLPPipelineConfig(), engine.Attach, rngutil.New(77))
	xs := test.X[:8]
	flagged := 0
	for _, x := range xs {
		if _, ok := pipe.Infer(x, true); !ok {
			flagged++
		}
	}
	if 2*flagged <= len(xs) {
		t.Fatalf("verify flagged %d of %d requests whose reads were all upset, want most", flagged, len(xs))
	}
}
