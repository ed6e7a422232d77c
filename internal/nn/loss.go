package nn

import (
	"math"

	"repro/internal/tensor"
)

// CrossEntropy returns -log p[label] with a numerical floor so that a
// confidently wrong prediction yields a large but finite loss.
func CrossEntropy(probs tensor.Vector, label int) float64 {
	p := probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

// BCE returns the element-wise mean binary cross-entropy between predicted
// probabilities and 0/1 targets, with clamping for numerical safety. It is
// the training loss of the click-through-rate models in §V.
func BCE(pred, target tensor.Vector) float64 {
	if len(pred) != len(target) {
		panic("nn: BCE length mismatch")
	}
	var s float64
	for i := range pred {
		p := math.Min(math.Max(pred[i], 1e-12), 1-1e-12)
		s += -(target[i]*math.Log(p) + (1-target[i])*math.Log(1-p))
	}
	return s / float64(len(pred))
}
