// Command bench-report measures the serial reference kernels against the
// internal/par tile engine at 128/512/1024-wide arrays and writes the
// results as machine-readable JSON (BENCH.json) — the repository's
// performance baseline and perf-budget gate.
//
// "Serial" is the scalar reference path: tensor.Matrix.MatVec / MatVecT
// for the MVMs (one goroutine, one accumulator, ascending index order) and
// the generic per-crosspoint update (Array.UpdateReference, one worker)
// for the pulse updates. "Parallel" is the engine path the simulator runs
// now (crossbar.Array ops at the requested -workers, noiseless-linear update
// kernel, sample-blocked batched forward). Serial and parallel are
// bit-identical in output; this report tracks only their speed.
//
// Beyond the regression gate (-baseline; a regression must show in both
// raw ns and the calibration-normalized cost, see gate), the report
// enforces absolute perf budgets on every run without -obs:
//
//   - allocs/op ≤ 2 on every engine-path benchmark — the zero-alloc
//     dispatch contract (a hot kernel pays for its own closure and output,
//     never for dispatch);
//   - forward-512 parallel/serial speedup ≥ 1.5× — a coarse sanity floor,
//     since the single-sample kernel is memory-bound at 512;
//   - update-512 parallel/serial speedup ≥ 2× — the RPU parallel-update
//     claim (Gokmen & Vlasov 2016) as a continuously enforced invariant;
//   - batched forward-1024 speedup ≥ 2.24× — the PR 4 headline number,
//     carried forward to the sample-blocked batch path at 1024;
//   - batched live service ≥ 1.5× the single-dispatch throughput.
//
// An -obs run measures instrumentation overhead instead, and its
// instrumented timings are not held to the budgets.
//
// Budget and gate failures exit non-zero with named errors; a malformed or
// legacy-named baseline fails loudly instead of being skipped.
//
// With -quick the tool emits a deterministic kernel-checksum table instead
// of timings: every hot kernel runs once on fixed seeded inputs and prints
// an FNV-1a checksum of its outputs. Timings vary run to run; the
// checksums may not — the determinism CI leg byte-diffs this table across
// -workers values.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the BENCH.json schema.
type Report struct {
	Schema     string `json:"schema"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPU is the host's CPU model, so a baseline is never read without the
	// hardware it was taken on.
	CPU string `json:"cpu"`
	// CalibrationNsPerOp is the serial 256×256 MVM on this machine; the
	// regression gate divides every benchmark by it so reports taken on
	// different hardware remain comparable.
	CalibrationNsPerOp float64  `json:"calibration_ns_per_op"`
	Benchmarks         []Result `json:"benchmarks"`
	// SpeedupForward512 is serial/parallel ns at 512 — the headline number.
	SpeedupForward512 float64 `json:"speedup_forward_512"`
	// SpeedupUpdate512 is the reference-update/engine-update ratio at 512 —
	// the parallel stochastic update win the update budget floors.
	SpeedupUpdate512 float64 `json:"speedup_update_512"`
	// SpeedupForwardBatch1024 is the per-batch serial/blocked ratio at 1024
	// over batchSamples samples — the GEMM-style blocking win.
	SpeedupForwardBatch1024 float64 `json:"speedup_forward_batch_1024"`
	// SpeedupServeBatch is the end-to-end live-service ratio: an open-loop
	// saturating workload through serve.Service with single dispatch vs
	// dynamic request batching on the same digital pipeline.
	SpeedupServeBatch float64 `json:"speedup_serve_batch"`
	// ObsEnabled records whether the run measured the instrumented tile
	// engine (-obs); overhead reports must not be committed as the baseline.
	ObsEnabled bool `json:"obs_enabled,omitempty"`
}

// Perf budgets: absolute floors and ceilings the committed baseline must
// meet on every machine, independent of the relative regression gate.
const (
	// allocBudget caps allocs/op on every engine-path benchmark (closure +
	// output vector; dispatch itself must stay allocation-free).
	allocBudget = 2
	// forwardSpeedupFloor is the minimum forward-512 engine speedup over
	// the serial reference. The single-sample kernel is memory-bound at
	// 512, so this is a coarse sanity floor, well under the recorded
	// baseline.
	forwardSpeedupFloor = 1.5
	// updateSpeedupFloor is the minimum update-512 engine speedup over the
	// generic per-crosspoint reference path.
	updateSpeedupFloor = 2.0
	// batchSpeedupFloor is the minimum batched forward-1024 speedup — the
	// PR 4 headline (2.24×), which the sample-blocked path must sustain at
	// the width where the single-sample kernel goes memory-bound.
	batchSpeedupFloor = 2.24
	// batchSamples is the batch width of the batched-forward benchmarks.
	batchSamples = 8
	// serveBatchSpeedupFloor is the minimum live-service batching win: the
	// batched service must move ≥1.5× the requests per second of single
	// dispatch under the open-loop saturating workload.
	serveBatchSpeedupFloor = 1.5
)

// benchReps is how many times each benchmark repeats; the fastest rep is
// kept. Min-of-N is the standard noise-robust cost estimator on a shared
// machine: external load only ever slows a run down, so the minimum is the
// best available estimate of the true cost. Five reps because the shared
// runners see multi-second bandwidth storms: three one-second reps can sit
// entirely inside one, and the regression gate then compares a storm
// minimum against a calm baseline minimum.
const benchReps = 5

// overhead, when set (-obs), pairs every timed benchmark: each rep runs
// the closure with the tile engine's instruments detached and attached,
// back to back and alternating which arm goes first, so both arms see the
// same machine regime.
var overhead *obsPair

// obsPair keeps each arm's fastest ns/op by benchmark name.
type obsPair struct {
	reg     *obs.Registry
	off, on map[string]float64
	onFirst bool
}

// ErrObsOverhead is the instrumentation overhead bound.
var ErrObsOverhead = errors.New("instrumentation overhead above bound")

// timed runs one benchmark rep and returns its result; under -obs it runs
// both arms and returns the instrumented one.
func timed(name string, f func(b *testing.B)) testing.BenchmarkResult {
	if overhead == nil {
		return testing.Benchmark(f)
	}
	overhead.onFirst = !overhead.onFirst
	var on testing.BenchmarkResult
	for _, instrumented := range [2]bool{overhead.onFirst, !overhead.onFirst} {
		reg, best := (*obs.Registry)(nil), overhead.off
		if instrumented {
			reg, best = overhead.reg, overhead.on
		}
		par.Instrument(reg)
		r := testing.Benchmark(f)
		if ns, old := float64(r.T.Nanoseconds())/float64(r.N), best[name]; old == 0 || ns < old {
			best[name] = ns
		}
		if instrumented {
			on = r
		}
	}
	return on
}

// check returns one named error per benchmark whose instrumented minimum
// exceeds its uninstrumented minimum by more than tol.
func (p *obsPair) check(tol float64) []error {
	var errs []error
	for name, off := range p.off {
		if ratio := p.on[name] / off; !(ratio <= 1+tol) {
			errs = append(errs, fmt.Errorf("%w: %s instrumented/plain %.3f > %.3f",
				ErrObsOverhead, name, ratio, 1+tol))
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}

func measure(name string, f func(b *testing.B)) Result {
	best := Result{Name: name}
	for rep := 0; rep < benchReps; rep++ {
		r := timed(name, f)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if rep == 0 || ns < best.NsPerOp {
			best.NsPerOp = ns
			best.AllocsPerOp = r.AllocsPerOp()
			best.BytesPerOp = r.AllocedBytesPerOp()
		}
	}
	return best
}

// measurePair measures a serial/parallel twin interleaved: every rep times
// the serial then the parallel closure back to back, so both sides of the
// ratio see the same machine regime. The returned speedup is the median of
// the per-rep ratios — a slow spell lands on both sides of its rep and
// mostly cancels, instead of skewing whichever independently-measured side
// it happened to hit. The budgeted speedup floors gate these medians.
func measurePair(nameS string, fS func(b *testing.B), nameP string, fP func(b *testing.B)) (Result, Result, float64) {
	s := Result{Name: nameS}
	p := Result{Name: nameP}
	ratios := make([]float64, 0, benchReps)
	for rep := 0; rep < benchReps; rep++ {
		rs := timed(nameS, fS)
		rp := timed(nameP, fP)
		nsS := float64(rs.T.Nanoseconds()) / float64(rs.N)
		nsP := float64(rp.T.Nanoseconds()) / float64(rp.N)
		if rep == 0 || nsS < s.NsPerOp {
			s.NsPerOp = nsS
			s.AllocsPerOp, s.BytesPerOp = rs.AllocsPerOp(), rs.AllocedBytesPerOp()
		}
		if rep == 0 || nsP < p.NsPerOp {
			p.NsPerOp = nsP
			p.AllocsPerOp, p.BytesPerOp = rp.AllocsPerOp(), rp.AllocedBytesPerOp()
		}
		ratios = append(ratios, nsS/nsP)
	}
	sort.Float64s(ratios)
	return s, p, ratios[len(ratios)/2]
}

// measurePairMin measures an interleaved pair like measurePair but over
// reps repetitions, and returns the ratio of the per-arm minima instead of
// the median per-rep ratio. The whole-service pair needs this: one op runs
// hundreds of milliseconds, so each rep spans seconds and a noise spell no
// longer lands on both sides of the same rep — it corrupts one arm of a
// rep and the per-rep ratio with it. The per-arm minimum discards slow
// spells on each side independently (the same min-of-N argument measure
// makes), and the ratio of minima compares the two clean costs.
func measurePairMin(reps int, nameS string, fS func(b *testing.B), nameP string, fP func(b *testing.B)) (Result, Result, float64) {
	s := Result{Name: nameS}
	p := Result{Name: nameP}
	for rep := 0; rep < reps; rep++ {
		rs := timed(nameS, fS)
		rp := timed(nameP, fP)
		nsS := float64(rs.T.Nanoseconds()) / float64(rs.N)
		nsP := float64(rp.T.Nanoseconds()) / float64(rp.N)
		if rep == 0 || nsS < s.NsPerOp {
			s.NsPerOp = nsS
			s.AllocsPerOp, s.BytesPerOp = rs.AllocsPerOp(), rs.AllocedBytesPerOp()
		}
		if rep == 0 || nsP < p.NsPerOp {
			p.NsPerOp = nsP
			p.AllocsPerOp, p.BytesPerOp = rp.AllocsPerOp(), rp.AllocedBytesPerOp()
		}
	}
	return s, p, s.NsPerOp / p.NsPerOp
}

// fill seeds a matrix and vectors with the size-keyed deterministic values
// every run of this tool uses.
func fill(n int) (*tensor.Matrix, tensor.Vector, tensor.Vector) {
	rng := rngutil.New(uint64(4000 + n))
	m := tensor.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := make(tensor.Vector, n)
	u := make(tensor.Vector, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		u[i] = rng.NormFloat64()
	}
	return m, x, u
}

// fillBatch derives batchSamples deterministic input vectors and matching
// output buffers.
func fillBatch(n int) (xs, ys []tensor.Vector) {
	rng := rngutil.New(uint64(6000 + n))
	xs = make([]tensor.Vector, batchSamples)
	ys = make([]tensor.Vector, batchSamples)
	for s := range xs {
		xs[s] = make(tensor.Vector, n)
		for i := range xs[s] {
			xs[s][i] = rng.NormFloat64()
		}
		ys[s] = make(tensor.Vector, n)
	}
	return xs, ys
}

func newArray(n int) *crossbar.Array {
	return crossbar.NewArray(n, n, crossbar.Ideal(), crossbar.DefaultConfig(), rngutil.New(uint64(5000+n)))
}

// cpuModel names the host CPU from the first "model name" line of
// /proc/cpuinfo, or "unknown" where /proc does not say.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func run(workers int) Report {
	rep := Report{Schema: "bench-report/v1", Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()}

	calib := measure("calibration_serial_matvec_256", func(b *testing.B) {
		b.ReportAllocs()
		m, x, _ := fill(256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MatVec(x)
		}
	})
	rep.CalibrationNsPerOp = calib.NsPerOp
	rep.Benchmarks = append(rep.Benchmarks, calib)

	for _, n := range []int{128, 512, 1024} {
		benchSerialF := func(b *testing.B) {
			b.ReportAllocs()
			m, x, _ := fill(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatVec(x)
			}
		}
		benchParF := func(b *testing.B) {
			b.ReportAllocs()
			par.SetWorkers(workers)
			_, x, _ := fill(n)
			arr := newArray(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arr.Forward(x)
			}
		}
		var serialF, parF Result
		if n == 512 {
			// The headline forward pair is measured interleaved so its
			// reported speedup is drift-immune.
			serialF, parF, rep.SpeedupForward512 = measurePair(
				fmt.Sprintf("forward_serial_%d", n), benchSerialF,
				fmt.Sprintf("forward_parallel_%d", n), benchParF)
		} else {
			serialF = measure(fmt.Sprintf("forward_serial_%d", n), benchSerialF)
			parF = measure(fmt.Sprintf("forward_parallel_%d", n), benchParF)
		}
		serialB := measure(fmt.Sprintf("backward_serial_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			m, _, u := fill(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatVecT(u)
			}
		})
		parB := measure(fmt.Sprintf("backward_parallel_%d", n), func(b *testing.B) {
			b.ReportAllocs()
			par.SetWorkers(workers)
			_, _, u := fill(n)
			arr := newArray(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arr.Backward(u)
			}
		})
		// The update's serial twin is the generic per-crosspoint path
		// (Array.UpdateReference — one per-cell pulse call per coincidence)
		// at one worker; the parallel side is the noiseless-linear engine
		// kernel at the requested workers. Bit-identical outputs, and
		// exactly the pairing the update speedup budget floors.
		var updS, updP Result
		if n == 512 {
			updS, updP, rep.SpeedupUpdate512 = measurePair(
				fmt.Sprintf("update_serial_%d", n), benchUpdate(n, (*crossbar.Array).UpdateReference, 1),
				fmt.Sprintf("update_parallel_%d", n), benchUpdate(n, (*crossbar.Array).Update, workers))
		} else {
			updS = measure(fmt.Sprintf("update_serial_%d", n), benchUpdate(n, (*crossbar.Array).UpdateReference, 1))
			updP = measure(fmt.Sprintf("update_parallel_%d", n), benchUpdate(n, (*crossbar.Array).Update, workers))
		}
		par.SetWorkers(0)
		rep.Benchmarks = append(rep.Benchmarks, serialF, serialB, parF, parB, updS, updP)
	}

	// Batched forward at 1024: serial twin is the scalar MVM per sample;
	// the engine side is the sample-blocked kernel over the same batch.
	// One op = the whole batchSamples-sample batch. Interleaved like the
	// other budgeted pairs.
	batchS, batchP, batchSpeedup := measurePair(
		fmt.Sprintf("forward_batch_serial_1024x%d", batchSamples), func(b *testing.B) {
			b.ReportAllocs()
			m, _, _ := fill(1024)
			xs, _ := fillBatch(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := range xs {
					m.MatVec(xs[s])
				}
			}
		},
		fmt.Sprintf("forward_batch_parallel_1024x%d", batchSamples), func(b *testing.B) {
			b.ReportAllocs()
			par.SetWorkers(workers)
			m, _, _ := fill(1024)
			xs, ys := fillBatch(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				par.MatVecBatchInto(m, xs, ys)
			}
		})
	rep.SpeedupForwardBatch1024 = batchSpeedup
	par.SetWorkers(0)
	rep.Benchmarks = append(rep.Benchmarks, batchS, batchP)

	// Live service end to end: the open-loop saturating workload through
	// serve.Service with single dispatch vs dynamic batching. One op is the
	// whole workload, so the ratio is a throughput speedup.
	srvS, srvP, srvSpeedup := measurePairMin(serveBenchReps,
		fmt.Sprintf("serve_single_%dx%d", serveWidth, serveTotalReqs), benchServe(1, workers),
		fmt.Sprintf("serve_batch%d_%dx%d", serveBatchMax, serveWidth, serveTotalReqs), benchServe(serveBatchMax, workers))
	rep.SpeedupServeBatch = srvSpeedup
	par.SetWorkers(0)
	rep.Benchmarks = append(rep.Benchmarks, srvS, srvP)
	return rep
}

// benchUpdate benchmarks update — the engine's Update or the generic
// UpdateReference — on a fresh n×n array at the given worker count.
func benchUpdate(n int, update func(a *crossbar.Array, scale float64, u, v tensor.Vector), workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		par.SetWorkers(workers)
		_, x, u := fill(n)
		arr := newArray(n)
		update(arr, 0.001, u, x) // warm the tile arena outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			update(arr, 0.001, u, x)
		}
	}
}

// Gate errors. A malformed report must fail the gate loudly: a zero or
// missing calibration would otherwise normalize every ratio to NaN/Inf,
// which compares false against any threshold and silently passes.
var (
	ErrBadCalibration  = errors.New("calibration ns/op missing or non-positive")
	ErrMissingBaseline = errors.New("baseline is missing a tracked benchmark")
	ErrBadMeasurement  = errors.New("benchmark measurement is non-finite or non-positive")
	// ErrLegacyBaseline means only a retired BENCH_PRn.json exists; the gate
	// refuses to read it so stale pre-engine baselines can't mask budgets.
	ErrLegacyBaseline = errors.New("only a legacy-named baseline found")
	// ErrAllocBudget and ErrSpeedupBudget are the absolute perf budgets.
	ErrAllocBudget   = errors.New("alloc budget exceeded")
	ErrSpeedupBudget = errors.New("speedup below budget floor")
)

// budgeted reports whether a benchmark is on the engine path and therefore
// under the allocs/op ceiling. Serial twins are exempt: the scalar
// reference allocates one output per sample by design. The serve_ pairs
// are whole-service throughput workloads (goroutines, channels, and one
// result per request are the very thing measured), not kernel hot paths,
// so the kernel alloc ceiling does not apply to them.
func budgeted(name string) bool {
	return !strings.Contains(name, "_serial_") &&
		!strings.HasPrefix(name, "calibration") && !strings.HasPrefix(name, "serve_")
}

// checkBudgets enforces the absolute perf budgets on a finished report and
// returns one named error per violation.
func checkBudgets(rep Report) []error {
	var errs []error
	for _, r := range rep.Benchmarks {
		if budgeted(r.Name) && r.AllocsPerOp > allocBudget {
			errs = append(errs, fmt.Errorf("%w: %s has %d allocs/op (budget %d)",
				ErrAllocBudget, r.Name, r.AllocsPerOp, allocBudget))
		}
	}
	if rep.SpeedupForward512 < forwardSpeedupFloor {
		errs = append(errs, fmt.Errorf("%w: forward 512 %.2fx < %.2fx",
			ErrSpeedupBudget, rep.SpeedupForward512, forwardSpeedupFloor))
	}
	if rep.SpeedupUpdate512 < updateSpeedupFloor {
		errs = append(errs, fmt.Errorf("%w: update 512 %.2fx < %.2fx",
			ErrSpeedupBudget, rep.SpeedupUpdate512, updateSpeedupFloor))
	}
	if rep.SpeedupForwardBatch1024 < batchSpeedupFloor {
		errs = append(errs, fmt.Errorf("%w: batched forward 1024 %.2fx < %.2fx",
			ErrSpeedupBudget, rep.SpeedupForwardBatch1024, batchSpeedupFloor))
	}
	if rep.SpeedupServeBatch < serveBatchSpeedupFloor {
		errs = append(errs, fmt.Errorf("%w: batched live service %.2fx < %.2fx",
			ErrSpeedupBudget, rep.SpeedupServeBatch, serveBatchSpeedupFloor))
	}
	return errs
}

// gate compares cur against base and returns the tracked benchmarks that
// regressed beyond tol in both the raw and the calibration-normalized cost.
// It errors — rather than skipping the comparison — when either report's
// calibration is unusable, a current benchmark has no baseline entry, or a
// normalized ratio comes out non-finite.
func gate(cur, base Report, tol float64) ([]string, error) {
	if !(cur.CalibrationNsPerOp > 0) || math.IsInf(cur.CalibrationNsPerOp, 0) {
		return nil, fmt.Errorf("%w: current report has %v", ErrBadCalibration, cur.CalibrationNsPerOp)
	}
	if !(base.CalibrationNsPerOp > 0) || math.IsInf(base.CalibrationNsPerOp, 0) {
		return nil, fmt.Errorf("%w: baseline has %v", ErrBadCalibration, base.CalibrationNsPerOp)
	}
	baseNs := map[string]float64{}
	for _, r := range base.Benchmarks {
		baseNs[r.Name] = r.NsPerOp
	}
	var bad []string
	for _, r := range cur.Benchmarks {
		old, ok := baseNs[r.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrMissingBaseline, r.Name)
		}
		normNew := r.NsPerOp / cur.CalibrationNsPerOp
		normOld := old / base.CalibrationNsPerOp
		if !(normNew > 0) || !(normOld > 0) || math.IsInf(normNew, 0) || math.IsInf(normOld, 0) {
			return nil, fmt.Errorf("%w: %s (current %v, baseline %v)",
				ErrBadMeasurement, r.Name, r.NsPerOp, old)
		}
		// A regression must show in BOTH the raw and the calibration-
		// normalized cost. Raw ns is exact on an unchanged machine but
		// meaningless across hardware; normalized transfers across hardware
		// but inherits the calibration benchmark's own noise. A real code
		// regression moves both on the machine CI actually runs; calibration
		// jitter moves only the normalized view, raw machine drift only the
		// raw view — each alone stays below the gate.
		if normNew > normOld*(1+tol) && r.NsPerOp > old*(1+tol) {
			bad = append(bad, fmt.Sprintf("%s: %.3f vs baseline %.3f (normalized, +%.0f%%; raw +%.0f%%)",
				r.Name, normNew, normOld, 100*(normNew/normOld-1), 100*(r.NsPerOp/old-1)))
		}
	}
	return bad, nil
}

// stableBaseline is the gate-input filename; legacyBaseline is the last
// retired per-PR name, kept only so the gate can refuse it by name.
const (
	stableBaseline = "BENCH.json"
	legacyBaseline = "BENCH_PR4.json"
)

// resolveBaseline maps the requested baseline path to the file the gate
// should read. Explicit non-default paths pass through untouched so pinned
// comparisons (e.g. the obs-overhead check) keep their exact semantics;
// the default stable name must exist — finding only the retired legacy
// name is a named error, not a fallback.
func resolveBaseline(path string, exists func(string) bool) (string, error) {
	if path != stableBaseline {
		return path, nil
	}
	if exists(path) {
		return path, nil
	}
	if exists(legacyBaseline) {
		return "", fmt.Errorf("%w: %s exists but %s does not; regenerate with `make bench-baseline`",
			ErrLegacyBaseline, legacyBaseline, stableBaseline)
	}
	return path, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-report: ")
	testing.Init()
	out := flag.String("out", stableBaseline, "output path for the JSON report")
	workers := flag.Int("workers", 4, "tile-engine worker count for the parallel benchmarks")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring time (testing -benchtime syntax)")
	baseline := flag.String("baseline", "", "committed baseline JSON to gate against (empty = no gate)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed normalized regression before the gate fails (with -obs, also the bound on instrumented/plain)")
	withObs := flag.Bool("obs", false, "measure every benchmark with the tile engine's observability registry detached and attached, interleaved, and bound the overhead at -tolerance instead of enforcing the perf budgets")
	quick := flag.Bool("quick", false, "emit the deterministic kernel checksum table instead of timings")
	flag.Parse()

	if *quick {
		printChecksums(os.Stdout, *workers)
		return
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		log.Fatal(err)
	}

	if *withObs {
		// Measure the same kernels with and without metrics attached, in
		// interleaved reps; the report carries the instrumented numbers.
		overhead = &obsPair{reg: obs.NewRegistry(), off: map[string]float64{}, on: map[string]float64{}}
	}
	rep := run(*workers)
	rep.ObsEnabled = *withObs
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks, workers=%d, forward 512 %.2fx, update 512 %.2fx, batch 1024 %.2fx, serve batch %.2fx)\n",
		*out, len(rep.Benchmarks), rep.Workers,
		rep.SpeedupForward512, rep.SpeedupUpdate512, rep.SpeedupForwardBatch1024,
		rep.SpeedupServeBatch)

	failed := false
	if overhead == nil {
		for _, err := range checkBudgets(rep) {
			fmt.Fprintf(os.Stderr, "BUDGET %v\n", err)
			failed = true
		}
	} else {
		errs := overhead.check(*tolerance)
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "OBS %v\n", err)
		}
		if len(errs) > 0 {
			failed = true
		} else {
			fmt.Printf("instrumentation overhead within %.0f%% on all %d benchmarks (paired minima)\n",
				*tolerance*100, len(overhead.off))
		}
	}
	if *baseline != "" {
		basePath, err := resolveBaseline(*baseline, fileExists)
		if err != nil {
			log.Fatal(err)
		}
		raw, err := os.ReadFile(basePath)
		if err != nil {
			log.Fatal(err)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			log.Fatalf("parse %s: %v", basePath, err)
		}
		bad, err := gate(rep, base, *tolerance)
		if err != nil {
			log.Fatalf("gate against %s: %v", basePath, err)
		}
		if len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintf(os.Stderr, "REGRESSION %s\n", b)
			}
			failed = true
		} else {
			fmt.Printf("no regressions beyond %.0f%% against %s\n", *tolerance*100, basePath)
		}
	}
	if failed {
		os.Exit(1)
	}
}
