package crossbar_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// FuzzUpdateExpected decodes bytes into a noiseless linear-step device
// (step size, asymmetry, device-to-device variation, bounds narrow enough
// to saturate at either end and not always around the initial weight 0),
// a stuck fraction, and a script of expected-mode updates with signed
// scales, and drives twin arrays through it: one with Update, which takes
// the noiseless-linear expected-mode kernel, the other with
// UpdateReference, the generic per-device path. After every update the
// twins must agree bit for bit in weights and device state, and exactly
// in stuck map, stream position and Counts.
func FuzzUpdateExpected(f *testing.F) {
	f.Add([]byte{1, 10, 19, 0, 16, 0x85, 3, 240, 0x10, 4})
	f.Add([]byte{3, 18, 0, 1, 127, 0x81, 9, 129, 0x81, 9, 64, 7, 2})
	f.Add([]byte{7, 2, 45, 6, 200, 3, 1, 90, 0x90, 5, 0, 1, 1, 33, 0x40, 8})
	f.Add([]byte{0, 20, 255, 7, 255, 0xff, 0, 1, 0x80, 0, 128, 12, 6})
	f.Add([]byte{2, 12, 8, 0, 40, 0x83, 5, 200, 0x83, 5})
	f.Add([]byte{5, 7, 33, 2, 30, 0x0f, 0x1f, 220, 0x4f, 0x3e})
	const rows, cols, maxOps = 70, 6, 12 // two row tiles
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := crossbar.LinearStepParams{
			DwMin:     0.002 * float64(1+data[0]%8),
			Asymmetry: float64(int(data[1]%21)-10) / 20,
			WMin:      0.1 * float64(int(data[2]%10)-7),
		}
		// The bounds need not hold 0, where every device starts.
		p.WMax = p.WMin + 0.1*float64(1+data[2]/10%10)
		if data[3]&1 == 1 {
			p.DeviceVar = 0.3
		}
		cfg := crossbar.Config{
			Update:        crossbar.UpdateExpected,
			StuckFraction: float64(data[3]>>1%4) / 8,
			StuckValueStd: 0.2,
		}
		model := &crossbar.LinearStepModel{P: p}
		seed := uint64(data[0])
		kernel := crossbar.NewArray(rows, cols, model, cfg, rngutil.New(seed))
		ref := crossbar.NewArray(rows, cols, model, cfg, rngutil.New(seed))
		script := data[4:]
		for op := 0; len(script) >= 3 && op < maxOps; op++ {
			scale := float64(int8(script[0])) / 32
			u := updateVector(rows, script[1], int(script[1]&0x7f)%rows)
			v := updateVector(cols, script[2], -1)
			script = script[3:]
			kernel.Update(scale, u, v)
			ref.UpdateReference(scale, u, v)
			requireSameState(t, op, kernel.ExportState(), ref.ExportState())
		}
	})
}

// updateVector returns a length-n vector: one-hot at hot when b's top bit
// is set and hot ≥ 0, else entries in [-1, 1) drawn from a stream seeded
// by b, with every third one zero and, when b's low nibble is 0xf, a NaN
// first (its pulse count int(NaN) is garbage, but the same on both paths,
// and no pulse lands).
func updateVector(n int, b byte, hot int) tensor.Vector {
	v := make(tensor.Vector, n)
	if b&0x80 != 0 && hot >= 0 {
		v[hot] = 1
		return v
	}
	rng := rngutil.New(uint64(b))
	for i := range v {
		if i%3 != 2 {
			v[i] = rng.Uniform(-1, 1)
		}
	}
	if b&0xf == 0xf {
		v[0] = math.NaN()
	}
	return v
}

// requireSameState fails unless two exported states agree: weights and
// device planes bit for bit, everything else exactly.
func requireSameState(t *testing.T, op int, got, want crossbar.ArrayState) {
	t.Helper()
	sameBits := func(what string, g, w []float64) {
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("op %d: %s %d = %v, reference %v", op, what, i, g[i], w[i])
			}
		}
	}
	sameBits("weight", got.Mirror, want.Mirror)
	for i := range want.Devices {
		sameBits("device", got.Devices[i].F, want.Devices[i].F)
	}
	if got.Counts != want.Counts {
		t.Fatalf("op %d: Counts %+v, reference %+v", op, got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(got.RNG, want.RNG) || !reflect.DeepEqual(got.Stuck, want.Stuck) {
		t.Fatalf("op %d: stream position or stuck map differs from the reference", op)
	}
}
