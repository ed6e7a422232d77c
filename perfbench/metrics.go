package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints. Every workload prints
// all of them; WORKLOADS.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput", "1/s"},
	{"p50_ms", "ms"},
	{"light.p50_ms", "ms"},
	{"peak.p50_ms", "ms"},
	{"goodput", "fraction"},
	{"accuracy", "fraction"},
}

// tailMetrics are the p99 latencies. Host stalls of up to tens of
// milliseconds on the VM the benchmark was tuned on moved them by 15-100%
// between identical runs, more than any bound the benchmark may set, so
// they are reported with the per-layer metrics and gate nothing.
var tailMetrics = []metricDef{
	{"p99_ms", "ms"},
	{"light.p99_ms", "ms"},
	{"peak.p99_ms", "ms"},
}

// fromUntraced names the per-layer metrics besides the tails that a
// --trace 1 run takes from its untraced pass: the ones the wrappers' own
// time and allocations would perturb.
var fromUntraced = []string{
	"runtime.allocs_per_op", "runtime.gc_cpu_frac",
	"gen.late_p99_ms", "gen.behind",
}

// servePhaseLayers are the serve-layer metrics reported once per serve-open
// phase, under a "light." or "peak." prefix.
var servePhaseLayers = []metricDef{
	{"serve.dispatch_ms", "ms"},
	{"serve.batch_size", "req/dispatch"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.canary_ms", "ms/s"},
	{"serve.hedges", "count"},
	{"serve.retries", "count"},
	{"serve.fallbacks", "count"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"serve.useful_ratio", "fraction"},
}

// perLayer lists the metrics a --trace 1 run prints. A workload that does
// not reach a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"crossbar.forward_ms", "ms"},
		{"crossbar.backward_ms", "ms"},
		{"crossbar.update_ms", "ms"},
		{"crossbar.pulses", "count"},
		{"nn.self_ms", "ms"},
	}
	for _, phase := range []string{"light.", "peak."} {
		for _, d := range servePhaseLayers {
			defs = append(defs, metricDef{phase + d.name, d.unit})
		}
	}
	defs = append(defs, tailMetrics...)
	return append(defs,
		metricDef{"xmann.similarity_ms", "ms"},
		metricDef{"xmann.soft_read_ms", "ms"},
		metricDef{"xmann.soft_write_ms", "ms"},
		metricDef{"lsh.sign_ms", "ms"},
		metricDef{"cam.search_ms", "ms"},
		metricDef{"cam.searches", "count"},
		metricDef{"sim.serve_s", "s"},
		metricDef{"sim.cluster_s", "s"},
		metricDef{"sim.requests", "count"},
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.gc_cpu_frac", "fraction"},
		metricDef{"gen.late_p99_ms", "ms"},
		metricDef{"gen.behind", "count"},
		metricDef{"host.probe_ms", "ms"},
		metricDef{"trace.overhead", "fraction"},
	)
}()

// throughputWindow is the number of ops per throughput sample.
const throughputWindow = 100

// closedLoopMetrics fills the end-to-end metrics of a workload with one
// load level from its per-op latencies and the work each op did (samples,
// queries, simulated requests). Its latencies stand for both the light and
// the peak figures; goodput is the share of ops within the latency limit.
// Throughput is the median, over consecutive windows of throughputWindow
// ops (single ops in a run shorter than two windows), of work per second
// of op time, so a burst of host noise moves a few windows, not the figure.
func closedLoopMetrics(latMs, work []float64, limitMs, accuracy float64) map[string]float64 {
	win := throughputWindow
	if len(latMs) < 2*win {
		win = 1
	}
	var rates []float64
	for lo := 0; lo+win <= len(latMs); lo += win {
		var w, ms float64
		for i := lo; i < lo+win; i++ {
			w += work[i]
			ms += latMs[i]
		}
		if ms > 0 {
			rates = append(rates, w/ms*1e3)
		}
	}
	good := 0
	for _, l := range latMs {
		if l <= limitMs {
			good++
		}
	}
	p50, tail := quantile(latMs, 0.5), p99(latMs)
	return map[string]float64{
		"throughput":   median(rates),
		"p50_ms":       p50,
		"p99_ms":       tail,
		"light.p50_ms": p50,
		"light.p99_ms": tail,
		"peak.p50_ms":  p50,
		"peak.p99_ms":  tail,
		"goodput":      float64(good) / float64(len(latMs)),
		"accuracy":     accuracy,
	}
}

// constWork is the per-op work of a workload whose ops all do n units.
func constWork(ops int, n float64) []float64 {
	w := make([]float64, ops)
	for i := range w {
		w[i] = n
	}
	return w
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	return procField("/proc/self/status", "VmHWM:", func(v string) float64 {
		kb, _ := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
		return kb / 1024
	})
}

// cpuModel names the host CPU, or "unknown" where /proc does not say.
func cpuModel() string {
	model := "unknown"
	procField("/proc/cpuinfo", "model name", func(v string) float64 {
		model = strings.TrimSpace(strings.TrimPrefix(v, ":"))
		return 0
	})
	return model
}

// procField applies parse to the rest of the first line of path that
// starts with key, and returns its result (0 if there is none).
func procField(path, key string, parse func(string) float64) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return parse(strings.TrimSpace(rest))
		}
	}
	return 0
}
