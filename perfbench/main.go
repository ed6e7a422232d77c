// Command perfbench is the repository benchmark: it runs one named workload
// from a seed, checks the program's outputs, and prints every end-to-end
// metric (or, with --trace 1, every per-layer metric) as the last line of
// standard output:
//
//	go run . --workload train-analog --seed 1 --seconds 20 --trace 0
//
// Every workload does a fixed amount of work: the op count is a fixed
// function of --seconds (the workload's nominal op rate on the host it was
// tuned on, times the run length), never of the clock, so simulated outputs are bit-identical
// from run to run and the mix of operations is the same in every run.
// WORKLOADS.md records why each workload exists, which layers it loads and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// defaultSeed and defaultSeconds select the run whose outputs are pinned to
// recorded values (expect.go); other seeds are checked by invariants only.
const (
	defaultSeed    = 1
	defaultSeconds = 20
	// setups is how many times a run builds its workload state; setup_s is
	// the median, so one slow build does not move it.
	setups = 5
)

// workload is one benchmark workload. setup builds a fresh instance from a
// seed; tr, when non-nil, receives the per-layer timings of everything the
// instance does.
type workload struct {
	name string
	// opsPerSecond is the nominal op rate used to turn --seconds into a
	// fixed op count.
	opsPerSecond float64
	setup        func(seed uint64, tr *tracer) (instance, error)
}

// instance is a workload built and ready to run.
type instance interface {
	// run performs ops operations, timing them, and checks the outputs.
	run(ops int) *outcome
	close()
}

// outcome is what one run of an instance produced.
type outcome struct {
	attempted, failed int64
	// e2e holds every end-to-end metric except setup_s and peak_rss_mb.
	e2e map[string]float64
	// layers holds the per-layer metrics the workload has; exact counts are
	// filled in untraced runs too so the two can be compared.
	layers map[string]float64
	// fingerprint digests the simulated outputs and exact counts; a traced
	// and an untraced run of the same seed must agree on it. Empty for a
	// workload whose outputs depend on timing.
	fingerprint string
	// speed is the figure trace.overhead compares (higher is faster).
	speed float64
	// problems lists the output checks that failed; each counts as a
	// failed operation.
	problems []string
	// host holds the probe times taken during the run (probe.go).
	host hostMeter
	// fixedRate marks an open loop, whose throughput the schedule sets and
	// host speed does not, so it is not scaled.
	fixedRate bool
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = []workload{
	trainWorkload,
	serveWorkload,
	mannWorkload,
	campaignWorkload,
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// opsFor is the fixed op count of a run of the given length.
func opsFor(w workload, seconds int) int {
	return int(math.Max(1, math.Round(w.opsPerSecond*float64(seconds))))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", defaultSeconds, "run length; sets the fixed op count")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result line. Diagnostics
// (the environment record and the output checks) go to log.
func run(name string, seed uint64, seconds int, traced bool, log io.Writer) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	env := setEnv()
	envLine, err := json.Marshal(map[string]any{"env": env, "workload": name, "seed": seed, "seconds": seconds, "trace": traced})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(log, string(envLine))

	ops := opsFor(w, seconds)
	var setupS []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		inst, err = w.setup(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	out := measure(inst, ops)
	inst.close()
	if want, ok := expectedFingerprint[name]; ok && seed == defaultSeed && seconds == defaultSeconds && out.fingerprint != want {
		out.fail("outputs differ from the recorded default-seed run:\n  got  %s\n  want %s", out.fingerprint, want)
	}
	fmt.Fprintf(log, "fingerprint: %s\n", out.fingerprint)

	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	problems := out.problems
	if traced {
		// The traced pass runs on a fresh instance of the same seed; it must
		// reproduce the untraced outputs exactly, which shows the wrappers
		// change no code path.
		runtime.GC()
		tinst, err := w.setup(seed, newTracer())
		if err != nil {
			return nil, fmt.Errorf("%s traced setup: %w", name, err)
		}
		tout := measure(tinst, ops)
		tinst.close()
		if tout.fingerprint != out.fingerprint {
			tout.fail("traced outputs differ from untraced:\n  traced   %s\n  untraced %s", tout.fingerprint, out.fingerprint)
		}
		res.Attempted += tout.attempted
		res.Failed += tout.failed
		problems = append(problems, tout.problems...)
		for _, m := range tailMetrics {
			tout.layers[m.name] = scaled(out.e2e[m.name], m.unit, out.host.scale())
		}
		for _, name := range fromUntraced {
			tout.layers[name] = out.layers[name]
		}
		tout.layers["host.probe_ms"] = median(out.host.ms)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{tout.layers[m.name], m.unit}
		}
		// Each pass's speed at reference host speed, so host drift between
		// the passes does not pass for tracing overhead.
		plainSpeed, tracedSpeed := out.speed/out.host.scale(), tout.speed/tout.host.scale()
		res.Metrics["trace.overhead"] = metricValue{plainSpeed/tracedSpeed - 1, "fraction"}
	} else {
		f := out.host.scale()
		for _, m := range endToEnd {
			v := out.e2e[m.name]
			if m.unit != "1/s" || !out.fixedRate {
				v = scaled(v, m.unit, f)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		res.Metrics["setup_s"] = metricValue{scaled(median(setupS), "s", f), "s"}
		res.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	}
	for _, p := range problems {
		fmt.Fprintln(log, "CHECK FAILED:", p)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs inst and adds the runtime-level per-layer metrics, which
// apply to every workload.
func measure(inst instance, ops int) *outcome {
	var m0, m1 runtime.MemStats
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	runtime.ReadMemStats(&m0)
	metrics.Read(samples)
	gc0, cpu0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	out := inst.run(ops)
	metrics.Read(samples)
	runtime.ReadMemStats(&m1)
	if out.layers == nil {
		out.layers = map[string]float64{}
	}
	out.layers["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	if cpu := samples[1].Value.Float64() - cpu0; cpu > 0 {
		out.layers["runtime.gc_cpu_frac"] = (samples[0].Value.Float64() - gc0) / cpu
	}
	return out
}

// environment is recorded with every result, so results taken under
// different conditions are never compared by mistake.
type environment struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	ParWorkers     int    `json:"par_workers"`
	ServiceWorkers int    `json:"service_workers"`
	CPU            string `json:"cpu"`
	GoVersion      string `json:"go_version"`
}

// benchProcs is the GOMAXPROCS and par worker count of every workload. On
// the 2-vCPU VM the benchmark was tuned on, keeping both vCPUs busy drew
// 20-40% hypervisor steal and moved throughput by 15% between identical
// runs, while one busy vCPU drew 1-3% steal at the same throughput (two par
// workers gained nothing at these sizes). WORKLOADS.md has the figures.
const benchProcs = 1

// serviceWorkers is the serve-open worker count: two, or fewer on a
// smaller host.
func serviceWorkers() int { return min(2, runtime.NumCPU()) }

func setEnv() environment {
	runtime.GOMAXPROCS(benchProcs)
	par.SetWorkers(benchProcs)
	return environment{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		ParWorkers:     par.Workers(),
		ServiceWorkers: serviceWorkers(),
		CPU:            cpuModel(),
		GoVersion:      runtime.Version(),
	}
}

// scaled turns a time or rate measured at host-speed scale factor f into
// its reference-speed value (probe.go); other units pass through.
func scaled(v float64, unit string, f float64) float64 {
	switch unit {
	case "ms", "s":
		return v * f
	case "1/s":
		return v / f
	}
	return v
}

// quantile is the repository's nearest-rank estimator (0 for no samples).
func quantile(xs []float64, q float64) float64 { return obs.Quantile(xs, q) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99Window is the number of samples per p99 estimate: enough that ten
// samples lie beyond it.
const p99Window = 1000

// p99 is the median of the p99s of consecutive windows of p99Window
// samples (the last window absorbs any remainder), or the plain p99 of a
// shorter series. The median over windows keeps one burst of host noise
// from setting a run's tail figure.
func p99(xs []float64) float64 {
	n := len(xs) / p99Window
	if n < 2 {
		return quantile(xs, 0.99)
	}
	ps := make([]float64, n)
	for w := range ps {
		hi := (w + 1) * p99Window
		if w == n-1 {
			hi = len(xs)
		}
		ps[w] = quantile(xs[w*p99Window:hi], 0.99)
	}
	return median(ps)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
