// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper (regenerating the corresponding rows/series on the
// first iteration, then timing the experiment), plus ablation benchmarks
// for the design choices called out in DESIGN.md §5.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-size tables (the EXPERIMENTS.md numbers) come from cmd/repro-all;
// the benchmarks use the quick variants so the suite stays fast.
package repro

import (
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/analog"
	"repro/internal/cam"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/lsh"
	"repro/internal/mann"
	"repro/internal/perfmodel"
	"repro/internal/quant"
	"repro/internal/recsys"
	"repro/internal/rngutil"
	"repro/internal/tensor"
	"repro/internal/xmann"
)

// benchExperiment prints the experiment's table once, then times repeated
// quick runs.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := core.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	fmt.Printf("\n--- %s: %s ---\n", e.ID, e.Title)
	if err := e.Run(os.Stdout, 1234, true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, 1234, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkC0ReducedPrecision(b *testing.B)       { benchExperiment(b, "C0") }
func BenchmarkC7InferenceEfficiency(b *testing.B)    { benchExperiment(b, "C7") }
func BenchmarkF1CrossbarCycles(b *testing.B)         { benchExperiment(b, "F1") }
func BenchmarkF2RRAMPulseResponse(b *testing.B)      { benchExperiment(b, "F2") }
func BenchmarkC1DeviceSpecSweep(b *testing.B)        { benchExperiment(b, "C1") }
func BenchmarkC2PCMTraining(b *testing.B)            { benchExperiment(b, "C2") }
func BenchmarkC3TikiTaka(b *testing.B)               { benchExperiment(b, "C3") }
func BenchmarkT1XMANNSuite(b *testing.B)             { benchExperiment(b, "T1") }
func BenchmarkC4MetricAccuracy(b *testing.B)         { benchExperiment(b, "C4") }
func BenchmarkF5CosineVsLSH(b *testing.B)            { benchExperiment(b, "F5") }
func BenchmarkC5TCAMVsGPU(b *testing.B)              { benchExperiment(b, "C5") }
func BenchmarkC6FeFETTCAM(b *testing.B)              { benchExperiment(b, "C6") }
func BenchmarkT2RecsysCharacterization(b *testing.B) { benchExperiment(b, "T2") }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPulseVsExpected compares the stochastic pulse-train
// update against the expected-value update: accuracy should match while
// costs differ.
func BenchmarkAblationPulseVsExpected(b *testing.B) {
	cfg := analog.DefaultExperiment()
	cfg.Data = dataset.DigitsConfig{Classes: 6, Dim: 16, PerClass: 60, Noise: 0.5, Separation: 1}
	cfg.Hidden = []int{12}
	cfg.Epochs = 6
	for _, mode := range []struct {
		name string
		m    crossbar.UpdateMode
	}{{"stochastic", crossbar.UpdateStochastic}, {"expected", crossbar.UpdateExpected}} {
		b.Run(mode.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				opts := analog.DefaultOptions(crossbar.Ideal(), analog.PlainSGD)
				opts.Cfg.Update = mode.m
				res, _ := analog.RunDigitsAnalog(opts, cfg)
				acc = res.TestAccuracy
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkAblationTTTransfer sweeps the Tiki-Taka transfer interval.
func BenchmarkAblationTTTransfer(b *testing.B) {
	cfg := analog.DefaultExperiment()
	cfg.Data = dataset.DigitsConfig{Classes: 6, Dim: 16, PerClass: 60, Noise: 0.5, Separation: 1}
	cfg.Hidden = []int{12}
	cfg.Epochs = 6
	asym := &crossbar.SoftBoundsModel{P: crossbar.SoftBoundsParams{
		SlopeUp: 0.002, SlopeDown: 0.012, WMin: -1, WMax: 1,
	}}
	for _, every := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("every-%d", every), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				opts := analog.DefaultOptions(asym, analog.TikiTaka)
				opts.TTTransferEvery = every
				res, _ := analog.RunDigitsAnalog(opts, cfg)
				acc = res.TestAccuracy
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkAblationLSHPlanes sweeps the LSH signature width.
func BenchmarkAblationLSHPlanes(b *testing.B) {
	u := dataset.NewFewShotUniverse(dataset.DefaultFewShot(), rngutil.New(7))
	eval := mann.EvalConfig{NWay: 5, KShot: 1, NQuery: 2, Episodes: 15, MemoryEntries: 128, Seed: 11}
	for _, planes := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("planes-%d", planes), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = mann.EvaluateFewShot(u, mann.NewLSHRetriever(u.Cfg.Dim, planes, rngutil.New(3)), eval)
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkAblationTCAMGeometry sweeps bank height: taller banks load the
// search-line drivers, flatter banks pay more combine steps.
func BenchmarkAblationTCAMGeometry(b *testing.B) {
	for _, rows := range []int{256, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("bankrows-%d", rows), func(b *testing.B) {
			geo := cam.DefaultGeometry()
			geo.BankRows = rows
			e := cam.Engine{Tech: cam.CMOS16T(), Geo: geo}
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = e.SearchCost(8192, 128).Latency
			}
			b.ReportMetric(lat*1e9, "ns/search")
		})
	}
}

// BenchmarkAblationEmbeddingCache sweeps cache capacity under Zipf skew.
func BenchmarkAblationEmbeddingCache(b *testing.B) {
	for _, kb := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("cache-%dKB", kb), func(b *testing.B) {
			var hr float64
			for i := 0; i < b.N; i++ {
				hr = recsys.EmbeddingCacheStudy(1_000_000, 64, kb<<10, 1.2, 20000, 5)
			}
			b.ReportMetric(hr, "hitrate")
		})
	}
}

// --- Microbenchmarks of the hot substrate paths ---
//
// The MVM and crossbar forward/backward/update kernels are measured, gated
// and recorded in BENCH.json by cmd/bench-report, not here.

func BenchmarkMicroTCAMBestMatch(b *testing.B) {
	rng := rngutil.New(3)
	tc := cam.New(128)
	for r := 0; r < 512; r++ {
		tc.Store(cam.RowFromUint(rng.Uint64(), 128))
	}
	q := cam.RowFromUint(rng.Uint64(), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.BestMatch(q)
	}
}

func BenchmarkMicroLSHSign(b *testing.B) {
	rng := rngutil.New(4)
	h := lsh.NewHasher(64, 512, rng)
	v := make(tensor.Vector, 64)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sign(v)
	}
}

func BenchmarkMicroRecsysInference(b *testing.B) {
	rng := rngutil.New(5)
	m := recsys.NewModel(recsys.RMCSmall(), rng.Child("model"))
	log := dataset.NewClickLog(dataset.DefaultClickLog(), 64, rng.Child("log"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(log.Samples[i%len(log.Samples)])
	}
}

func BenchmarkMicroXMANNSimilarityFunctional(b *testing.B) {
	rng := rngutil.New(6)
	mem := tensor.NewMatrix(64, 32)
	for i := range mem.Data {
		mem.Data[i] = rng.Uniform(0.05, 0.9)
	}
	dm := xmann.NewDistributedMemory(mem, 32, rng.Child("dm"))
	key := make(tensor.Vector, 32)
	key.Fill(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dm.Similarity(key, 5)
	}
}

// BenchmarkMicroProgramVerifyPCM is closed-loop write-verify of a 64×64
// PCM array under a fault engine that drops writes, the per-pulse path the
// serve and cluster campaigns run whenever they build, recalibrate or
// canary a replica. Each iteration programs a freshly built array (built
// outside the timer), so every iteration issues the same pulses.
func BenchmarkMicroProgramVerifyPCM(b *testing.B) {
	rng := rngutil.New(8)
	target := tensor.NewMatrix(64, 64)
	for i := range target.Data {
		target.Data[i] = rng.Uniform(-0.5, 0.5)
	}
	pol := crossbar.DefaultProgramPolicy()
	var pulses int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := crossbar.NewArray(64, 64, crossbar.PCM(), crossbar.DefaultConfig(), rngutil.New(9))
		faults.NewEngine(faults.Plan{WriteFail: 0.05}, rngutil.New(10)).Attach(a)
		b.StartTimer()
		pulses = a.ProgramVerify(target, pol).Pulses
	}
	b.ReportMetric(float64(pulses), "pulses/op")
}

func BenchmarkMicroQuantizeVec(b *testing.B) {
	q := quant.New(4, 0.4)
	rng := rngutil.New(7)
	v := make(tensor.Vector, 64)
	for i := range v {
		v[i] = rng.NormFloat64() * 0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.QuantizeVec(v)
	}
}

func BenchmarkMicroGPUCostModel(b *testing.B) {
	g := perfmodel.DefaultGPU()
	for i := 0; i < b.N; i++ {
		g.Kernel(2*4096*128, 4*(4096*128+4096+128))
	}
}
