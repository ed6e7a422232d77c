package crossbar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// goldenStateModels are the device models the golden-state script runs
// on: every technology, plus the linear variant whose per-cell scales
// differ and a FeFET whose endurance runs out inside the script.
func goldenStateModels() []struct {
	name  string
	model Model
} {
	wornFeFET := FeFET()
	wornFeFET.P.Endurance = 60
	return []struct {
		name  string
		model Model
	}{
		{"ideal", Ideal()},
		{"ideal-var", &LinearStepModel{P: LinearStepParams{
			DwMin: 0.002, Asymmetry: 0.05, DeviceVar: 0.3, WMin: -1, WMax: 1,
		}}},
		{"rram", RRAM()},
		{"pcm", PCM()},
		{"fefet", FeFET()},
		{"fefet-worn", wornFeFET},
		{"ecram", ECRAM()},
	}
}

// goldenStateHash drives a 12×10 array through one fixed script that
// touches every state-mutating operation, then hashes the gob encoding of
// ExportState followed by the bits of every value the script read back.
// The "sparse" variant runs sparseDriveScript instead.
func goldenStateHash(model Model, variant string) string {
	if variant == "sparse" {
		return sparseDriveHash(model)
	}
	cfg := DefaultConfig()
	switch variant {
	case "stuck-corrupt":
		cfg.StuckFraction = 0.15
		cfg.StuckValueStd = 0.3
	case "expected":
		cfg.Update = UpdateExpected
	}
	a := NewArray(12, 10, model, cfg, rngutil.New(41))
	if variant == "drop-hook" {
		a.SetFaultHook(&dropHook{rng: rngutil.New(43), p: 0.3})
	}
	data := rngutil.New(47)
	var outs []float64
	for step := 0; step < 3; step++ {
		x := scriptVec(10, 4, data)
		outs = append(outs, a.Forward(x)...)
		a.Update(0.05, scriptVec(12, 3, data), scriptVec(10, 3, data))
		a.UpdateReference(-0.03, scriptVec(12, 5, data), scriptVec(10, 2, data))
		a.UpdateDeviceExact(step, step+1, 4, step%2 == 0)
	}
	a.PulseAll(5, true)
	a.AlternatePulseAll(3)
	target := randomTarget(12, 10, 0.4, 53)
	p, r := a.Program(target, 40)
	rep := a.ProgramVerify(target, ProgramPolicy{MaxPulses: 15, MaxRetries: 2})
	pd, pe := a.ProgramDevice(2, 3, -0.3, 100)
	outs = append(outs, float64(p), r, float64(rep.Rounds), float64(rep.Pulses),
		rep.Residual, rep.WorstErr, float64(rep.Failed), float64(rep.Stuck), float64(pd), pe)
	a.FreezeAt(4, 5, 0.37)
	a.Freeze(6, 7)
	a.AdvanceTime(500)
	a.ResetAll()
	a.Update(0.08, scriptVec(12, 0, data), scriptVec(10, 0, data))
	a.AdvanceTime(3000)
	outs = append(outs, a.Forward(scriptVec(10, 0, data))...)
	outs = append(outs, a.MaxSaturation(), a.DeviceWeight(4, 5), a.DeviceWeight(6, 7))
	return stateHash(outs, a)
}

// sparseDriveHash drives two 200×10 arrays, four row tiles each, with
// updates that leave whole tiles undriven: one-hot rows in expected mode
// (the X-MANN soft write), and stochastic updates whose row trains are
// empty outside tiles 1 and 3, through both Update and UpdateReference.
// It pins that a tile's stream depends only on (seed, update counter,
// tile), whichever tiles draw.
func sparseDriveHash(model Model) string {
	const rows, cols = 200, 10
	data := rngutil.New(59)
	var outs []float64
	var arrays []*Array
	for _, mode := range []UpdateMode{UpdateExpected, UpdateStochastic} {
		cfg := DefaultConfig()
		cfg.Update = mode
		a := NewArray(rows, cols, model, cfg, rngutil.New(61))
		for step, hot := range []int{5, 100, 197} {
			onehot := make(tensor.Vector, rows)
			onehot[hot] = 1
			a.Update(0.05, onehot, scriptVec(cols, 3, data))
			u := make(tensor.Vector, rows)
			for i := 64 + step; i < 128; i += 3 {
				u[i] = data.NormFloat64()
			}
			for i := 192; i < rows; i++ {
				u[i] = data.NormFloat64()
			}
			a.Update(0.04, u, scriptVec(cols, 2, data))
			a.UpdateReference(-0.03, u, scriptVec(cols, 4, data))
		}
		outs = append(outs, a.Forward(scriptVec(cols, 0, data))...)
		arrays = append(arrays, a)
	}
	return stateHash(outs, arrays...)
}

// stateHash hashes the gob encoding of each array's ExportState followed
// by the bits of every read-back value.
func stateHash(outs []float64, arrays ...*Array) string {
	h := sha256.New()
	for _, a := range arrays {
		if err := gob.NewEncoder(h).Encode(a.ExportState()); err != nil {
			panic(err)
		}
	}
	var b [8]byte
	for _, v := range outs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenStateHashes pins the exported state and read-back values of the
// golden-state script, per model and variant. Any change to a pulse law,
// to the order of random draws, to fault handling or to the checkpoint
// encoding moves a hash; a change that keeps behaviour the same must not.
var goldenStateHashes = map[string]string{
	"ideal/plain":              "7ec2d2e90b9092d2",
	"ideal/stuck-corrupt":      "2495e9d68d4c4da9",
	"ideal/drop-hook":          "ad5037be4d2c0971",
	"ideal/expected":           "527be2f3570969c9",
	"ideal/sparse":             "7806cfbc10f13b05",
	"ideal-var/plain":          "650896db65371c6d",
	"ideal-var/stuck-corrupt":  "0c942d7713981f15",
	"ideal-var/drop-hook":      "f2b2a550d33ede12",
	"ideal-var/expected":       "583b9b4eafbcc3ad",
	"ideal-var/sparse":         "37b469a48b730b1c",
	"rram/plain":               "e2740db7be84c75c",
	"rram/stuck-corrupt":       "20a5e9689840af19",
	"rram/drop-hook":           "4eec518e8e6308ba",
	"rram/expected":            "b4eec34bf25a87b0",
	"rram/sparse":              "af4cc2116399c35a",
	"pcm/plain":                "c820c244fe6df962",
	"pcm/stuck-corrupt":        "13c7f2c75923c3e1",
	"pcm/drop-hook":            "719312252b697070",
	"pcm/expected":             "d7bf92646841b3c2",
	"pcm/sparse":               "c450326f54f34480",
	"fefet/plain":              "6af7c17f5af279a3",
	"fefet/stuck-corrupt":      "28e6f56f59dab34c",
	"fefet/drop-hook":          "e986fc46a9886e79",
	"fefet/expected":           "174c3beaa38b1beb",
	"fefet/sparse":             "6ee4ac6c2b4ba699",
	"fefet-worn/plain":         "2df16ff5c32c378c",
	"fefet-worn/stuck-corrupt": "5603010e1099d70a",
	"fefet-worn/drop-hook":     "4e40bd7dd6e7fc53",
	"fefet-worn/expected":      "9e2c25f88aecdb8d",
	"fefet-worn/sparse":        "6ee4ac6c2b4ba699",
	"ecram/plain":              "8b27470da5177480",
	"ecram/stuck-corrupt":      "713a84f737ea3d74",
	"ecram/drop-hook":          "52d3d988b47a6829",
	"ecram/expected":           "fa949aa5e7f86e28",
	"ecram/sparse":             "e90759e7e7da6d52",
}

// TestGoldenArrayState is the byte-identity check for every device model,
// including the ones (FeFET, ECRAM) that no campaign output covers.
func TestGoldenArrayState(t *testing.T) {
	for _, m := range goldenStateModels() {
		for _, variant := range []string{"plain", "stuck-corrupt", "drop-hook", "expected", "sparse"} {
			name := m.name + "/" + variant
			got := goldenStateHash(m.model, variant)
			if want := goldenStateHashes[name]; got != want {
				t.Errorf("%q: %q, // want %q", name, got, want)
			}
		}
	}
}

// TestNewArrayAllocsDoNotGrowWithSize guards the flat cell layout: building
// an array costs a fixed handful of allocations (planes, random streams),
// not one or more per crosspoint.
func TestNewArrayAllocsDoNotGrowWithSize(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	for _, m := range goldenStateModels() {
		for _, n := range []int{8, 64, 128} {
			allocs := testing.AllocsPerRun(3, func() {
				NewArray(n, n, m.model, DefaultConfig(), rngutil.New(1))
			})
			if allocs > 32 {
				t.Errorf("%s: NewArray(%d, %d) made %.0f allocations, want ≤ 32", m.name, n, n, allocs)
			}
		}
	}
}
