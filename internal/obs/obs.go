// Package obs is the repository's stdlib-only observability layer: a typed
// metrics registry (counters, gauges, and histograms with exact quantiles
// in sim mode and streaming windows in real mode), per-request trace spans
// with parent/child IDs and stage timings, and opt-in net/http endpoints
// (/metrics in Prometheus text format, /debug/pprof/*, /traces).
//
// Two design rules run through everything:
//
//  1. Disabled must be free. Every constructor accepts a nil registry or
//     tracer and returns nil instruments, and every instrument method is a
//     no-op on a nil receiver — so instrumented hot paths cost exactly one
//     nil check when observability is off. The PR 4 benchmark gate holds
//     with instrumentation compiled in.
//
//  2. Dumps must be deterministic when the feed is. The virtual-time
//     simulator feeds the registry from event time, never the wall clock,
//     so WriteStable output is byte-identical at any -workers value — the
//     same contract the campaign tables obey. Instruments that are fed
//     wall-clock measurements (real-service latencies, fsync timings,
//     scheduling-dependent tile batches) are marked Volatile at creation
//     and excluded from WriteStable; they still appear on the live
//     /metrics endpoint.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "summary"
	}
	return "untyped"
}

// metric is the registry-internal interface of all instrument types.
// write receives the series' family name and its (possibly empty) label
// body so multi-line instruments can merge their own labels in.
type metric interface {
	kindOf() metricKind
	helpOf() string
	isVolatile() bool
	write(w io.Writer, family, labels string)
}

// Series builds a labeled metric name — family{k1="v1",k2="v2"} — for use
// with Counter/Gauge/Histogram. Pairs are canonicalised (sorted by key) so
// the same label set always yields the same registry key, and values are
// quoted/escaped. Every series of a family shares one HELP/TYPE header in
// the dumps; give them all the same help string. Panics on an odd kv count
// (always a programming error).
func Series(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: Series(%q): odd label key/value count %d", family, len(kv)))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// splitSeries splits a registry key into its family name and label body.
func splitSeries(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// seriesRef renders a sample-line name: family or family{labels}.
func seriesRef(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// Registry holds named instruments. A nil *Registry is the disabled layer:
// its constructors return nil instruments whose methods are no-ops.
// Registration is idempotent — asking for an existing name returns the
// existing instrument (and panics on a kind mismatch, which is always a
// programming error).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// register is the common idempotent-registration path.
func (r *Registry) register(name string, make func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Counter registers (or fetches) a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, func() metric { return &Counter{help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.kindOf()))
	}
	return c
}

// Gauge registers (or fetches) a settable instantaneous value.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, func() metric { return &Gauge{help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.kindOf()))
	}
	return g
}

// Histogram registers (or fetches) a sample distribution exported as a
// Prometheus summary (nearest-rank quantiles, sum, count). window == 0
// keeps every sample (exact mode — what the deterministic simulator
// feeds); window > 0 keeps only the most recent window samples (streaming
// mode for long-lived real services).
func (r *Registry) Histogram(name, help string, window int) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, func() metric {
		h := &Histogram{help: help, window: window}
		if window > 0 {
			h.samples = make([]float64, 0, window)
		}
		return h
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.kindOf()))
	}
	return h
}

// WritePrometheus renders every metric — volatile ones included — in the
// Prometheus text exposition format, sorted by name. This is what the live
// /metrics endpoint serves.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.dump(w, true)
}

// WriteStable renders only the non-volatile metrics, sorted by name: the
// byte-deterministic dump the -metrics-out flag writes and the CI
// determinism gate diffs across worker counts.
func (r *Registry) WriteStable(w io.Writer) {
	r.dump(w, false)
}

func (r *Registry) dump(w io.Writer, includeVolatile bool) {
	if r == nil {
		return
	}
	type entry struct {
		family, labels string
		m              metric
	}
	r.mu.Lock()
	entries := make([]entry, 0, len(r.metrics))
	for name, m := range r.metrics {
		if includeVolatile || !m.isVolatile() {
			family, labels := splitSeries(name)
			entries = append(entries, entry{family, labels, m})
		}
	}
	r.mu.Unlock()
	// Sort by (family, labels) so every series of a family is contiguous and
	// gets exactly one HELP/TYPE header — and the dump stays byte-stable.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].family != entries[j].family {
			return entries[i].family < entries[j].family
		}
		return entries[i].labels < entries[j].labels
	})
	prev := ""
	for _, e := range entries {
		if e.family != prev {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.family, e.m.helpOf(), e.family, e.m.kindOf())
			prev = e.family
		}
		e.m.write(w, e.family, e.labels)
	}
}

// ftoa is the deterministic float rendering all dumps share (shortest
// round-trippable representation, no locale, no exponent surprises across
// platforms).
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Counter is a monotonically increasing event count.
type Counter struct {
	help     string
	volatile bool
	v        atomic.Int64
}

// Volatile marks the counter wall-clock-fed (excluded from WriteStable)
// and returns it, for chaining at registration.
func (c *Counter) Volatile() *Counter {
	if c != nil {
		c.volatile = true
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil receiver — the disabled path).
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) kindOf() metricKind { return kindCounter }
func (c *Counter) helpOf() string     { return c.help }
func (c *Counter) isVolatile() bool   { return c.volatile }
func (c *Counter) write(w io.Writer, family, labels string) {
	fmt.Fprintf(w, "%s %d\n", seriesRef(family, labels), c.v.Load())
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	help     string
	volatile bool
	bits     atomic.Uint64
}

// Volatile marks the gauge wall-clock-fed and returns it.
func (g *Gauge) Volatile() *Gauge {
	if g != nil {
		g.volatile = true
	}
	return g
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value reports the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

func (g *Gauge) kindOf() metricKind { return kindGauge }
func (g *Gauge) helpOf() string     { return g.help }
func (g *Gauge) isVolatile() bool   { return g.volatile }
func (g *Gauge) write(w io.Writer, family, labels string) {
	fmt.Fprintf(w, "%s %s\n", seriesRef(family, labels), ftoa(g.Value()))
}

// Histogram collects a sample distribution. In exact mode (window 0) it
// keeps every observation, so quantiles are exact — the mode the
// deterministic simulator feeds. In windowed mode it keeps a ring of the
// most recent window samples — the streaming mode for unbounded
// real-service feeds. Sum and Count always cover every observation ever
// made, window or not.
type Histogram struct {
	help     string
	volatile bool
	window   int

	mu      sync.Mutex
	samples []float64
	next    int // ring cursor (windowed mode)
	count   int64
	sum     float64
}

// Volatile marks the histogram wall-clock-fed and returns it.
func (h *Histogram) Volatile() *Histogram {
	if h != nil {
		h.volatile = true
	}
	return h
}

// Observe folds one sample in (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.count++
	h.sum += v
	if h.window <= 0 || len(h.samples) < h.window {
		h.samples = append(h.samples, v)
	} else {
		h.samples[h.next] = v
		h.next = (h.next + 1) % h.window
	}
	h.mu.Unlock()
}

func (h *Histogram) kindOf() metricKind { return kindHistogram }
func (h *Histogram) helpOf() string     { return h.help }
func (h *Histogram) isVolatile() bool   { return h.volatile }

// summaryQuantiles are the quantile lines every histogram exports.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

func (h *Histogram) write(w io.Writer, family, labels string) {
	h.mu.Lock()
	s := append([]float64(nil), h.samples...)
	count, sum := h.count, h.sum
	h.mu.Unlock()
	sort.Float64s(s)
	for _, q := range summaryQuantiles {
		qLabels := fmt.Sprintf("quantile=%q", ftoa(q))
		if labels != "" {
			qLabels = labels + "," + qLabels
		}
		fmt.Fprintf(w, "%s{%s} %s\n", family, qLabels, ftoa(NearestRank(s, q)))
	}
	fmt.Fprintf(w, "%s %s\n%s %d\n", seriesRef(family+"_sum", labels), ftoa(sum), seriesRef(family+"_count", labels), count)
}

// floatBits/floatFromBits adapt float64 gauges to the atomic word.
func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// defaultReg and defaultTr hold the process-wide default observability
// handles the campaign binaries install from their -obs-addr/-metrics-out/
// -trace-out flags; library code never reads them — only the experiment
// runners in internal/core fetch them to thread into campaign configs.
var (
	defaultReg atomic.Pointer[Registry]
	defaultTr  atomic.Pointer[Tracer]
)

// SetDefault installs the process-wide default registry and tracer (either
// may be nil).
func SetDefault(r *Registry, t *Tracer) {
	defaultReg.Store(r)
	defaultTr.Store(t)
}

// Default reports the process-wide default registry (nil when observability
// is disabled).
func Default() *Registry { return defaultReg.Load() }

// DefaultTracer reports the process-wide default tracer (nil when tracing
// is disabled).
func DefaultTracer() *Tracer { return defaultTr.Load() }
