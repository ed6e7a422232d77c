package crossbar

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// refProgramDevice is the write-verify loop programDevice replaced, kept
// as the oracle its per-law loops are pinned against: read the weight,
// stop within one mean step of the bound-clipped aim, else issue one pulse
// toward it through UpdateDeviceExact (stuck check, fault hook, the law's
// cells method, Counts.Pulses), until the budget runs out.
func refProgramDevice(a *Array, i, j int, want float64, maxPulses int) (pulses int, err float64) {
	if a.IsStuck(i, j) {
		return 0, math.Abs(want - a.DeviceWeight(i, j))
	}
	dw := a.Model().MeanStep()
	aim := a.clampToBounds(want)
	for p := 0; p < maxPulses; p++ {
		diff := aim - a.DeviceWeight(i, j)
		if math.Abs(diff) < dw {
			break
		}
		a.UpdateDeviceExact(i, j, 1, diff > 0)
		pulses++
	}
	return pulses, math.Abs(want - a.DeviceWeight(i, j))
}

// refProgram is Program on refProgramDevice.
func refProgram(a *Array, target *tensor.Matrix, maxPulses int) (pulses int, residual float64) {
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if !a.IsStuck(i, j) {
				p, _ := refProgramDevice(a, i, j, target.At(i, j), maxPulses)
				pulses += p
			}
		}
	}
	return pulses, a.Residual(target)
}

// programFuzzModel decodes b into one of the five device models, with
// parameters that push each law to its edges: out-of-bounds aims always
// (targets reach ±2), PCM legs with another ceiling and step,
// a FeFET whose endurance runs out within a few programs, and a noisy,
// asymmetric linear device with narrow bounds.
func programFuzzModel(b byte) Model {
	switch b % 8 {
	case 0:
		return Ideal()
	case 1:
		return &LinearStepModel{P: LinearStepParams{
			DwMin: 0.01, Asymmetry: 0.2, CycleNoise: 0.3, DeviceVar: 0.3, WMin: -0.6, WMax: 0.4,
		}}
	case 2:
		return RRAM()
	case 3:
		return PCM()
	case 4:
		m := PCM()
		m.P.GMax, m.P.DG = 0.7, 0.02
		return m
	case 5:
		m := FeFET()
		m.P.Endurance = 5 + int64(b/8)
		return m
	case 6:
		return ECRAM()
	}
	return PCMProjected()
}

// FuzzProgramDevice drives twin arrays through a script of programming
// operations: one through ProgramDevice and Program, which run the per-law
// program loops, the other through refProgramDevice and refProgram. The
// bytes pick the model, the seed, a stuck fraction, a pulse-dropping fault
// hook (each twin has its own, seeded alike), the pulse budget, and the
// script; PulseAll steps in it drive PCM legs toward GMax and FeFET cells
// toward their endurance. After every step the twins must agree bit for
// bit in weights and device planes, and exactly in wear, stuck map,
// Counts, the array's and the hook's stream positions, the pulses reported
// and the error or residual.
func FuzzProgramDevice(f *testing.F) {
	f.Add([]byte{3, 1, 0, 60, 0, 7, 200, 1, 0, 9, 2, 3, 40})
	f.Add([]byte{4, 2, 0x0d, 90, 1, 19, 10, 0, 3, 250, 2, 0, 200, 1, 4, 0})
	f.Add([]byte{5, 3, 0x05, 10, 0, 0, 255, 2, 1, 12, 0, 7, 0, 1, 9, 255})
	f.Add([]byte{0x2d, 4, 0x16, 3, 2, 30, 0, 0, 2, 128, 1, 5, 60})
	f.Add([]byte{1, 5, 0x1f, 40, 0, 11, 250, 1, 13, 3, 0, 2, 128})
	f.Add([]byte{2, 6, 0x0e, 25, 1, 8, 40, 0, 17, 220, 2, 6, 100})
	f.Add([]byte{6, 7, 0x02, 5, 0, 4, 255, 1, 0, 0, 0, 9, 130})
	f.Add([]byte{7, 8, 0x3c, 120, 2, 90, 1, 0, 1, 255, 1, 1, 1})
	f.Add([]byte{9, 9, 0, 30, 1, 1, 255, 1, 2, 0, 1, 3, 255, 1, 4, 0, 1, 5, 255})
	const rows, cols, maxSteps = 4, 5, 10
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		model := programFuzzModel(data[0])
		seed := uint64(data[1])
		cfg := DefaultConfig()
		cfg.StuckFraction = float64(data[2]&3) / 8
		cfg.StuckValueStd = 0.2
		loop := NewArray(rows, cols, model, cfg, rngutil.New(seed))
		ref := NewArray(rows, cols, model, cfg, rngutil.New(seed))
		var hooks [2]*dropHook
		if data[2]&4 != 0 {
			p := float64(data[2]>>3&7) / 8
			for k, a := range []*Array{loop, ref} {
				hooks[k] = &dropHook{rng: rngutil.New(seed + 1), p: p}
				a.SetFaultHook(hooks[k])
			}
		}
		budget := 1 + 8*int(data[3])
		requireSameProgramState(t, -1, loop, ref, hooks)
		script := data[4:]
		for step := 0; len(script) >= 3 && step < maxSteps; step++ {
			op, arg, val := script[0], script[1], script[2]
			script = script[3:]
			want := 4*float64(val)/255 - 2 // in [-2, 2], beyond every bound
			switch op % 3 {
			case 0:
				i, j := int(arg)%rows, int(arg)/rows%cols
				gp, ge := loop.ProgramDevice(i, j, want, budget)
				wp, we := refProgramDevice(ref, i, j, want, budget)
				if gp != wp || math.Float64bits(ge) != math.Float64bits(we) {
					t.Fatalf("step %d: ProgramDevice(%d, %d, %v) = %d, %v; reference %d, %v", step, i, j, want, gp, ge, wp, we)
				}
			case 1:
				target := randomTarget(rows, cols, 2*float64(val)/255, uint64(arg))
				gp, gr := loop.Program(target, budget)
				wp, wr := refProgram(ref, target, budget)
				if gp != wp || math.Float64bits(gr) != math.Float64bits(wr) {
					t.Fatalf("step %d: Program = %d, %v; reference %d, %v", step, gp, gr, wp, wr)
				}
			case 2:
				up := arg&1 == 0
				loop.PulseAll(1+int(val)%64, up)
				ref.PulseAll(1+int(val)%64, up)
			}
			requireSameProgramState(t, step, loop, ref, hooks)
		}
	})
}

// requireSameProgramState fails unless the twins' exported states agree
// (float planes by bits, the rest exactly) and their hooks' streams sit at
// the same position.
func requireSameProgramState(t *testing.T, step int, got, want *Array, hooks [2]*dropHook) {
	t.Helper()
	g, w := got.ExportState(), want.ExportState()
	sameBits := func(what string, gv, wv []float64) {
		for i := range wv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("step %d: %s %d = %v, reference %v", step, what, i, gv[i], wv[i])
			}
		}
	}
	sameBits("weight", g.Mirror, w.Mirror)
	for i := range w.Devices {
		sameBits("device", g.Devices[i].F, w.Devices[i].F)
		if !reflect.DeepEqual(g.Devices[i].N, w.Devices[i].N) {
			t.Fatalf("step %d: device %d counters %v, reference %v", step, i, g.Devices[i].N, w.Devices[i].N)
		}
	}
	if g.Counts != w.Counts {
		t.Fatalf("step %d: Counts %+v, reference %+v", step, g.Counts, w.Counts)
	}
	if g.RNG != w.RNG || !reflect.DeepEqual(g.Stuck, w.Stuck) {
		t.Fatalf("step %d: stream position %+v or stuck map differs from the reference %+v", step, g.RNG, w.RNG)
	}
	if hooks[0] != nil && hooks[0].rng.State() != hooks[1].rng.State() {
		t.Fatalf("step %d: hook stream at %+v, reference %+v", step, hooks[0].rng.State(), hooks[1].rng.State())
	}
}

// BenchmarkProgramVerify times closed-loop programming per pulse law: a
// 32×32 array written alternately to two random targets, so every
// iteration moves every device, with the PCM pairs reset first as a
// trainer would, so their legs keep headroom. pulses/op is the work each
// iteration does.
func BenchmarkProgramVerify(b *testing.B) {
	for _, bm := range []struct {
		name  string
		model Model
	}{
		{"linear", ECRAM()},
		{"soft-bounds", RRAM()},
		{"fefet", FeFET()},
		{"pcm", PCM()},
	} {
		b.Run(bm.name, func(b *testing.B) {
			a := NewArray(32, 32, bm.model, DefaultConfig(), rngutil.New(1))
			targets := [2]*tensor.Matrix{randomTarget(32, 32, 0.5, 2), randomTarget(32, 32, 0.5, 3)}
			pulses := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ResetAll()
				pulses += a.ProgramVerify(targets[i&1], DefaultProgramPolicy()).Pulses
			}
			b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
		})
	}
}
