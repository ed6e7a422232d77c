package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNearestRankEdges(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single-q0", []float64{7}, 0, 7},
		{"single-q50", []float64{7}, 0.5, 7},
		{"single-q100", []float64{7}, 1, 7},
		{"pair-min", []float64{1, 2}, 0, 1},
		{"pair-median", []float64{1, 2}, 0.5, 1}, // ceil(0.5*2)=1 → first
		{"pair-max", []float64{1, 2}, 1, 2},
		{"ten-p90", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{"ten-p99", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
		{"q-above-1", []float64{1, 2, 3}, 1.5, 3},
		{"q-below-0", []float64{1, 2, 3}, -0.5, 1},
	}
	for _, c := range cases {
		if got := NearestRank(c.sorted, c.q); got != c.want {
			t.Errorf("%s: NearestRank(%v, %v) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

// TestNearestRankUnbiased pins the satellite bugfix: over 64 samples the old
// floor-biased estimator int(q*(n-1)) lands on index 59 for p95 (≈ the true
// p94), while nearest rank takes the ceil(0.95*64) = 61st order statistic —
// index 60.
func TestNearestRankUnbiased(t *testing.T) {
	s := make([]float64, 64)
	for i := range s {
		s[i] = float64(i)
	}
	if got := NearestRank(s, 0.95); got != 60 {
		t.Fatalf("p95 of 0..63 = %v, want 60 (nearest rank)", got)
	}
	if biased := s[int(0.95*float64(len(s)-1))]; biased != 59 {
		t.Fatalf("floor-biased index moved: got %v", biased) // documents the old behavior
	}
}

func TestQuantileSortsCopy(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := Quantile(in, 1); got != 3 {
		t.Fatalf("Quantile max = %v, want 3", got)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", in)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "other help"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("c_total", "wrong kind")
}

func TestHistogramWindowRing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", 4)
	for i := 1; i <= 4; i++ { // exactly full, no wrap yet
		h.Observe(float64(i))
	}
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("max over exactly-full window = %v, want 4", got)
	}
	for i := 5; i <= 10; i++ { // wrap: retained should be 7..10
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); got != 7 {
		t.Fatalf("min after wrap = %v, want 7 (oldest retained)", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("max after wrap = %v, want 10", got)
	}
	if h.Count() != 10 {
		t.Fatalf("lifetime count = %d, want 10", h.Count())
	}
	if h.Sum() != 55 {
		t.Fatalf("lifetime sum = %v, want 55", h.Sum())
	}
}

func TestHistogramExactMode(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e_seconds", "help", 0)
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("exact p50 = %v, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Fatalf("exact p99 = %v, want 99", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", 8)
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments are not inert")
	}
	c.Volatile().Inc()
	r.WriteStable(io.Discard)
	r.WritePrometheus(io.Discard)

	var tr *Tracer
	sp := tr.Start("root", 0)
	sp.Stage("s", 1)
	sp.SetErr("e")
	ch := sp.Child("c", 1)
	ch.End(2)
	sp.End(2)
	if tr.Snapshot() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer is not inert")
	}
}

func TestStableDumpExcludesVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable_total", "kept").Inc()
	r.Counter("wallclock_total", "dropped").Volatile().Inc()
	r.Histogram("wallclock_seconds", "dropped", 8).Volatile().Observe(1)

	var stable, live strings.Builder
	r.WriteStable(&stable)
	r.WritePrometheus(&live)
	if strings.Contains(stable.String(), "wallclock") {
		t.Fatalf("WriteStable leaked a volatile metric:\n%s", stable.String())
	}
	if !strings.Contains(stable.String(), "stable_total 1") {
		t.Fatalf("WriteStable is missing the stable counter:\n%s", stable.String())
	}
	for _, want := range []string{"wallclock_total 1", "wallclock_seconds_count 1", "stable_total 1"} {
		if !strings.Contains(live.String(), want) {
			t.Fatalf("WritePrometheus is missing %q:\n%s", want, live.String())
		}
	}
}

func TestDumpIsSortedAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zz_total", "z").Add(3)
		r.Gauge("aa", "a").Set(1.25)
		h := r.Histogram("mm_seconds", "m", 0)
		h.Observe(0.5)
		h.Observe(0.25)
		return r
	}
	var d1, d2 strings.Builder
	build().WriteStable(&d1)
	build().WriteStable(&d2)
	if d1.String() != d2.String() {
		t.Fatalf("identical feeds produced different dumps:\n%s\nvs\n%s", d1.String(), d2.String())
	}
	ia := strings.Index(d1.String(), "aa")
	im := strings.Index(d1.String(), "mm_seconds")
	iz := strings.Index(d1.String(), "zz_total")
	if !(ia < im && im < iz) {
		t.Fatalf("dump is not sorted by name:\n%s", d1.String())
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(3)
	for i := 1; i <= 5; i++ {
		sp := tr.Start("op", float64(i))
		sp.End(float64(i) + 0.5)
	}
	got := tr.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring retained %d spans, want 3", len(got))
	}
	for i, rec := range got { // oldest first: spans 3, 4, 5
		if want := float64(i + 3); rec.Start != want {
			t.Fatalf("span %d start = %v, want %v (oldest-first order)", i, rec.Start, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTraceParentChildIDs(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("request", 0)
	root.Stage("queue", 0.1)
	child := root.Child("attempt", 0.2)
	child.End(0.3)
	root.Stage("complete", 0.4)
	root.End(0.4)

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	att, req := spans[0], spans[1] // child ended first
	if att.Trace != req.Trace {
		t.Fatalf("child trace %d != root trace %d", att.Trace, req.Trace)
	}
	if att.Parent != req.ID {
		t.Fatalf("child parent %d != root id %d", att.Parent, req.ID)
	}
	if req.Trace != req.ID || req.Parent != 0 {
		t.Fatalf("root span ids wrong: %+v", req)
	}
	if len(req.Stages) != 2 || req.Stages[0].Name != "queue" || req.Stages[1].Name != "complete" {
		t.Fatalf("root stages wrong: %+v", req.Stages)
	}

	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Dropped int64        `json:"dropped"`
		Spans   []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &dump); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v", err)
	}
	if len(dump.Spans) != 2 || dump.Dropped != 0 {
		t.Fatalf("dump = %+v", dump)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("pings_total", "").Add(7)
	tr := NewTracer(4)
	tr.Start("op", 1).End(2)
	srv := httptest.NewServer(NewHandler(r, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "pings_total 7") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/traces"); code != 200 || !strings.Contains(body, `"spans"`) {
		t.Fatalf("/traces: code %d body %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope: code %d, want 404", code)
	}
}

func TestManualClock(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatal("manual clock did not start where asked")
	}
	m.Advance(3 * time.Second)
	if got := m.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("advance moved %v, want 3s", got)
	}
	m.Set(start)
	if !m.Now().Equal(start) {
		t.Fatal("set did not jump the clock")
	}
	if System.Now().IsZero() {
		t.Fatal("system clock returned zero time")
	}
}

func TestDefaultRegistryInstall(t *testing.T) {
	defer SetDefault(nil, nil)
	if Default() != nil || DefaultTracer() != nil {
		t.Fatal("defaults not nil at start")
	}
	r, tr := NewRegistry(), NewTracer(0)
	SetDefault(r, tr)
	if Default() != r || DefaultTracer() != tr {
		t.Fatal("SetDefault did not install the handles")
	}
}

func TestFtoaDeterministic(t *testing.T) {
	a, b := 0.1, 0.2 // variables, so the sum is float64 arithmetic, not exact constant folding
	if got := ftoa(a + b); got != "0.30000000000000004" {
		t.Fatalf("ftoa is not the shortest round-trippable form: %q", got)
	}
	if got := ftoa(math.Inf(1)); got != "+Inf" {
		t.Fatalf("ftoa(+Inf) = %q", got)
	}
}

// Count reports how many samples were ever observed (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the running sum of every observation (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile reports the nearest-rank q-th quantile over the retained
// samples (all of them in exact mode, the most recent window otherwise).
// 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	s := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	return Quantile(s, q)
}
