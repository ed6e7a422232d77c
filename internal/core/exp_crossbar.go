package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/analog"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// expConfig returns the shared digits-MLP experiment configuration for the
// crossbar studies (quick: test-sized; full: the EXPERIMENTS.md runs).
func expConfig(seed uint64, quick bool) analog.ExperimentConfig {
	cfg := analog.DefaultExperiment()
	cfg.Seed = seed
	if quick {
		cfg.Data = dataset.DigitsConfig{Classes: 6, Dim: 16, PerClass: 60, Noise: 0.5, Separation: 1}
		cfg.Hidden = []int{12}
		cfg.Epochs = 6
	}
	return cfg
}

func init() {
	register(Experiment{
		ID:    "F1",
		Title: "Crossbar MVM / transposed MVM / parallel rank-1 stochastic update (Fig. 1)",
		PaperClaim: "a crossbar performs all three cycles in O(1) array operations with an " +
			"unbiased stochastic update E[dW] = lr*(d (x) x)",
		Run: runF1,
	})
	register(Experiment{
		ID:    "F2",
		Title: "Analog RRAM pulse response: 3 cycles of 1000 potentiation + 1000 depression pulses (Fig. 2)",
		PaperClaim: "nonlinear, saturating, asymmetric conductance response with " +
			"cycle-to-cycle stochasticity",
		Run: runF2,
	})
	register(Experiment{
		ID:    "C1",
		Title: "RPU device-spec sweep: update asymmetry x granularity vs training accuracy",
		PaperClaim: "symmetry within a few percent and ~0.1% granularity retain accuracy; " +
			"coarse or strongly asymmetric devices degrade training",
		Run: runC1,
	})
	register(Experiment{
		ID:    "C2",
		Title: "PCM training: drift, projection liner, periodic reset, mixed precision",
		PaperClaim: "differential PCM needs periodic reset; projection liner suppresses drift; " +
			"mixed-precision updates recover near-digital accuracy",
		Run: runC2,
	})
	register(Experiment{
		ID:    "C3",
		Title: "Asymmetric-device training: plain SGD vs zero-shifting vs Tiki-Taka (+stuck devices)",
		PaperClaim: "Tiki-Taka on aggressively asymmetric devices trains indistinguishably from " +
			"ideal symmetric devices; drop-connect training accommodates stuck devices",
		Run: runC3,
	})
}

func runF1(w io.Writer, seed uint64, quick bool) error {
	n := 256
	if quick {
		n = 32
	}
	a := crossbar.NewArray(n, n, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(seed))
	rng := rngutil.New(seed).Child("vectors")
	x := make(tensor.Vector, n)
	d := make(tensor.Vector, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Uniform(-1, 1)
		d[i] = rng.Uniform(-1, 1)
	}
	a.Forward(x)
	a.Backward(d)
	a.Update(0.01, d, x)
	fmt.Fprintf(w, "array %dx%d: forward=%d backward=%d update=%d array-ops total\n",
		n, n, a.Counts.Forwards, a.Counts.Backwards, a.Counts.Updates)
	fmt.Fprintf(w, "digital MAC equivalent of the same work: %d\n", a.Counts.DigitalMACs)
	fmt.Fprintf(w, "O(1) claim: 3 array ops replace %d MACs (ratio %.0fx)\n",
		a.Counts.DigitalMACs, float64(a.Counts.DigitalMACs)/3)

	// Unbiasedness of the stochastic update, averaged over trials.
	trials := 200
	if quick {
		trials = 50
	}
	u := tensor.Vector{0.8, -0.5, 0.3}
	v := tensor.Vector{0.6, -0.9}
	var meanErr, meanMag float64
	sum := tensor.NewMatrix(3, 2)
	for trial := 0; trial < trials; trial++ {
		small := crossbar.NewArray(3, 2, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(seed+uint64(trial)+1))
		before := small.Weights()
		small.Update(0.01, u, v)
		after := small.Weights()
		for i := range sum.Data {
			sum.Data[i] += after.Data[i] - before.Data[i]
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			want := 0.01 * u[i] * v[j]
			meanErr += math.Abs(sum.At(i, j)/float64(trials) - want)
			meanMag += math.Abs(want)
		}
	}
	fmt.Fprintf(w, "stochastic update bias over %d trials: %.1f%% of update magnitude\n",
		trials, 100*meanErr/meanMag)
	return nil
}

func runF2(w io.Writer, seed uint64, quick bool) error {
	cycles, pulses := 3, 1000
	if quick {
		pulses = 200
	}
	trace := crossbar.PulseResponse(crossbar.RRAM(), cycles, pulses, pulses, seed)
	fmt.Fprintf(w, "%d-point conductance trace (%d cycles x %d up + %d down)\n",
		len(trace), cycles, pulses, pulses)
	stride := len(trace) / 24
	fmt.Fprintf(w, "trace (every %dth point):", stride)
	for i := 0; i < len(trace); i += stride {
		fmt.Fprintf(w, " %.3f", trace[i])
	}
	fmt.Fprintln(w)
	up100, upLast := saturation(trace, pulses)
	fmt.Fprintf(w, "saturation: first-decile potentiation moves %.4f, last decile %.4f (ratio %.1fx)\n",
		up100, upLast, up100/math.Max(upLast, 1e-9))
	fmt.Fprintf(w, "measured up/down asymmetry of the model: %.2f (0 = symmetric)\n",
		crossbar.MeasureAsymmetry(crossbar.RRAM(), 100, seed))

	// The other §II-B synapses next to RRAM. Each device ramps up from its
	// fresh state for as many pulses as would cover 90% of its upper range
	// at its mean step, so a linear device never reaches its hard bound:
	// soft-bounds RRAM and FeFET saturate, ECRAM steps almost linearly and
	// symmetrically and reads a ratio near 1.
	fmt.Fprintf(w, "\n%-16s %6s %10s %17s\n", "device", "pulses", "asymmetry", "saturation ratio")
	for _, m := range []crossbar.Model{crossbar.RRAM(), crossbar.FeFET(), crossbar.ECRAM()} {
		_, wmax := m.WeightBounds()
		n := int(0.9 * wmax / m.MeanStep())
		first, last := saturation(crossbar.PulseResponse(m, 1, n, 0, seed), n)
		fmt.Fprintf(w, "%-16s %6d %10.2f %16.1fx\n",
			m.Name(), n, crossbar.MeasureAsymmetry(m, 100, seed), first/math.Max(last, 1e-9))
	}
	return nil
}

// saturation returns how far the first and the last decile of a trace's
// first potentiation ramp of pulses steps move the weight.
func saturation(trace []float64, pulses int) (first, last float64) {
	return trace[pulses/10-1] - trace[0], trace[pulses-1] - trace[pulses-1-pulses/10]
}

func runC1(w io.Writer, seed uint64, quick bool) error {
	cfg := expConfig(seed, quick)
	digital := analog.RunDigitsDigital(cfg)
	fmt.Fprintf(w, "fp32 digital reference accuracy: %.3f\n\n", digital.TestAccuracy)
	fmt.Fprintf(w, "%-12s %-14s %s\n", "asymmetry", "granularity", "test accuracy")

	asyms := []float64{0, 0.02, 0.05, 0.10, 0.30}
	grans := []float64{0.001, 0.002, 0.01, 0.04} // fraction of the 2.0 weight range
	if quick {
		asyms = []float64{0, 0.05, 0.30}
		grans = []float64{0.001, 0.04}
	}
	for _, g := range grans {
		for _, a := range asyms {
			model := &crossbar.LinearStepModel{P: crossbar.LinearStepParams{
				DwMin:      2 * g, // dw over the [-1,1] range
				Asymmetry:  a,
				CycleNoise: 0.1,
				WMin:       -1, WMax: 1,
			}}
			opts := analog.DefaultOptions(model, analog.PlainSGD)
			res, _ := analog.RunDigitsAnalog(opts, cfg)
			fmt.Fprintf(w, "%-12.2f %-14.3f %.3f\n", a, g, res.TestAccuracy)
		}
	}
	fmt.Fprintln(w, "\n(granularity 0.001 = the paper's 0.1% of range; asymmetry <= 0.05 = 'a few percent')")
	return nil
}

func runC2(w io.Writer, seed uint64, quick bool) error {
	cfg := expConfig(seed, quick)
	digital := analog.RunDigitsDigital(cfg)

	type row struct {
		name string
		res  analog.TrainResult
	}
	var rows []row

	// Mixed-precision training on plain and projected PCM with per-epoch
	// drift and saturation maintenance.
	for _, mc := range []struct {
		name  string
		model crossbar.Model
		drift float64
	}{
		{"pcm mixed-precision (no liner, 60s drift/epoch)", crossbar.PCM(), 60},
		{"pcm mixed-precision (projection liner)", crossbar.PCMProjected(), 60},
	} {
		sess := analog.NewSession(analog.DefaultOptions(mc.model, analog.MixedPrecision), rngutil.New(cfg.Seed).Child("session"))
		res := analog.RunDigits(sess.Factory(), cfg, func(epoch int) {
			sess.AdvanceTime(mc.drift)
			sess.MaintainPCM(0.9)
		})
		rows = append(rows, row{mc.name, res})
	}
	// Plain analog SGD on PCM without maintenance: saturation hurts.
	noReset, _ := analog.RunDigitsAnalog(analog.DefaultOptions(crossbar.PCM(), analog.PlainSGD), cfg)
	rows = append(rows, row{"pcm plain SGD (no reset, no liner)", noReset})

	fmt.Fprintf(w, "%-48s %s\n", "configuration", "test accuracy")
	fmt.Fprintf(w, "%-48s %.3f\n", "fp32 digital reference", digital.TestAccuracy)
	for _, r := range rows {
		fmt.Fprintf(w, "%-48s %.3f\n", r.name, r.res.TestAccuracy)
	}

	// Drift of programmed inference weights over time, with and without
	// the projection liner.
	fmt.Fprintf(w, "\ninference drift (relative output loss after 10^6 s):\n")
	for _, mc := range []struct {
		name  string
		model crossbar.Model
	}{{"pcm", crossbar.PCM()}, {"pcm-projected", crossbar.PCMProjected()}} {
		a := crossbar.NewArray(8, 8, mc.model, crossbar.DefaultConfig(), rngutil.New(seed))
		a.PulseAll(150, true)
		ones := make(tensor.Vector, 8)
		ones.Fill(1)
		before := a.Forward(ones).Sum()
		a.AdvanceTime(1e6)
		after := a.Forward(ones).Sum()
		fmt.Fprintf(w, "  %-14s %.1f%%\n", mc.name, 100*(before-after)/before)
	}
	return nil
}

func runC3(w io.Writer, seed uint64, quick bool) error {
	cfg := expConfig(seed, quick)
	asym := &crossbar.SoftBoundsModel{P: crossbar.SoftBoundsParams{
		SlopeUp: 0.002, SlopeDown: 0.012, WMin: -1, WMax: 1,
	}}
	fmt.Fprintf(w, "device: soft-bounds, measured asymmetry %.2f\n\n",
		crossbar.MeasureAsymmetry(asym, 100, seed))
	fmt.Fprintf(w, "%-36s %s\n", "training algorithm", "test accuracy")

	ideal, _ := analog.RunDigitsAnalog(analog.DefaultOptions(crossbar.Ideal(), analog.PlainSGD), cfg)
	fmt.Fprintf(w, "%-36s %.3f\n", "ideal symmetric device + SGD", ideal.TestAccuracy)
	for _, mode := range []analog.Mode{analog.PlainSGD, analog.ZeroShift, analog.TikiTaka} {
		res, _ := analog.RunDigitsAnalog(analog.DefaultOptions(asym, mode), cfg)
		fmt.Fprintf(w, "%-36s %.3f\n", "asymmetric device + "+mode.String(), res.TestAccuracy)
	}

	// Stuck devices: conventional vs hardware-aware (drop-connect) training
	// programmed onto faulty arrays, averaged over fault placements. At this
	// network scale both training styles tolerate the faults gracefully
	// (accuracy well above the asymmetric-device failure mode above); the
	// qualitative claim reproduced is fault *tolerance*, with drop-connect
	// providing insurance at no accuracy cost.
	const stuckFrac = 0.20
	fmt.Fprintf(w, "\nstuck devices (%.0f%%), inference after programming (mean of 3 fault placements):\n", 100*stuckFrac)
	rng := rngutil.New(cfg.Seed)
	ds := dataset.Digits(cfg.Data, rng.Child("data"))
	train, test := ds.Split(cfg.TrainFrac)
	sizes := append([]int{cfg.Data.Dim}, cfg.Hidden...)
	sizes = append(sizes, cfg.Data.Classes)
	trainMLP := func(factory nn.MatFactory) *nn.MLP {
		m := nn.NewMLP(sizes, nn.TanhAct, nn.SoftmaxAct, factory)
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for i := range train.X {
				m.TrainStep(train.X[i], train.Y[i], cfg.LR)
			}
		}
		return m
	}
	faulty := crossbar.DefaultConfig()
	faulty.StuckFraction = stuckFrac
	plain := trainMLP(nn.DenseFactory(rngutil.New(seed + 1)))
	aware := trainMLP(analog.DropConnectFactory(stuckFrac/2, rngutil.New(seed+1)))
	analog.SetTrainMode(aware, false)
	var accPlain, accAware float64
	for s := uint64(0); s < 3; s++ {
		plainA, _ := analog.ProgramToArrays(plain, crossbar.Ideal(), faulty, rngutil.New(seed+2+s))
		awareA, _ := analog.ProgramToArrays(aware, crossbar.Ideal(), faulty, rngutil.New(seed+2+s))
		accPlain += plainA.Accuracy(test.X, test.Y)
		accAware += awareA.Accuracy(test.X, test.Y)
	}
	fmt.Fprintf(w, "%-36s %.3f\n", "conventional training", accPlain/3)
	fmt.Fprintf(w, "%-36s %.3f\n", "hardware-aware (drop-connect)", accAware/3)
	return nil
}
