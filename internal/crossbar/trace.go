package crossbar

import "repro/internal/rngutil"

// PulseResponse reproduces the Fig. 2 measurement protocol on a fresh
// device: cycles repetitions of nUp potentiation pulses followed by nDown
// depression pulses, recording the device weight (read current proxy) after
// every pulse. The returned trace has cycles·(nUp+nDown) points.
func PulseResponse(model Model, cycles, nUp, nDown int, seed uint64) []float64 {
	rng := rngutil.New(seed)
	d := model.newCells(1, rng.Child("device"))
	pr := rng.Child("pulses")
	trace := make([]float64, 0, cycles*(nUp+nDown))
	for c := 0; c < cycles; c++ {
		for p := 0; p < nUp; p++ {
			d.pulse(0, 1, true, pr)
			trace = append(trace, d.w[0])
		}
		for p := 0; p < nDown; p++ {
			d.pulse(0, 1, false, pr)
			trace = append(trace, d.w[0])
		}
	}
	return trace
}

// FindSymmetryPoint drives a fresh device with alternating single up/down
// pulses until its weight converges, returning the final weight — the
// empirical symmetry point exploited by zero-shifting (§II-B.5).
func FindSymmetryPoint(model Model, iters int, seed uint64) float64 {
	rng := rngutil.New(seed)
	d := model.newCells(1, rng.Child("device"))
	pr := rng.Child("pulses")
	for i := 0; i < iters; i++ {
		d.pulse(0, 1, true, pr)
		d.pulse(0, 1, false, pr)
	}
	return d.w[0]
}

// MeasureAsymmetry empirically estimates the up/down step imbalance of a
// device model at its symmetry-neutral state: (|Δ⁺| − |Δ⁻|)/(|Δ⁺| + |Δ⁻|),
// averaged over trials fresh devices. 0 means perfectly symmetric.
func MeasureAsymmetry(model Model, trials int, seed uint64) float64 {
	rng := rngutil.New(seed)
	var num, den float64
	for t := 0; t < trials; t++ {
		d := model.newCells(1, rng.Child("device"))
		pr := rng.Child("pulses")
		w0 := d.w[0]
		d.pulse(0, 1, true, pr)
		up := d.w[0] - w0
		w1 := d.w[0]
		d.pulse(0, 1, false, pr)
		down := w1 - d.w[0]
		num += up - down
		den += up + down
	}
	if den == 0 {
		return 0
	}
	return num / den
}
