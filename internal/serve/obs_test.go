package serve

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// The latency window behind Health.HedgeDelay (obs.LatencyWindow, shared
// with the cluster router) at its edges and across ring wraparound.
func TestLatWindowQuantileEdges(t *testing.T) {
	w := obs.NewLatencyWindow(4)
	if got := w.Quantile(0.5); got != 0 {
		t.Fatalf("empty window quantile = %v, want 0", got)
	}

	w.Add(7) // n = 1: every quantile is the one sample
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := w.Quantile(q); got != 7 {
			t.Fatalf("single-sample quantile(%v) = %v, want 7", q, got)
		}
	}

	w.Add(3)
	w.Add(9)
	w.Add(1) // window exactly full, cursor wrapped to 0, no eviction yet
	if got := w.Quantile(0); got != 1 {
		t.Fatalf("full-window min = %v, want 1", got)
	}
	if got := w.Quantile(1); got != 9 {
		t.Fatalf("full-window max = %v, want 9", got)
	}
	if got := w.Quantile(0.5); got != 3 { // nearest rank: ceil(0.5*4)=2nd of {1,3,7,9}
		t.Fatalf("full-window p50 = %v, want 3", got)
	}
}

func TestLatWindowWraparound(t *testing.T) {
	w := obs.NewLatencyWindow(4)
	for i := 1; i <= 10; i++ { // retained after wrap: {7, 8, 9, 10}
		w.Add(float64(i))
	}
	if w.Len() != 4 {
		t.Fatalf("window n = %d, want 4", w.Len())
	}
	if got := w.Quantile(0); got != 7 {
		t.Fatalf("post-wrap min = %v, want 7 (oldest retained)", got)
	}
	if got := w.Quantile(1); got != 10 {
		t.Fatalf("post-wrap max = %v, want 10", got)
	}
	if got := w.Quantile(0.75); got != 9 { // ceil(0.75*4)=3rd of {7,8,9,10}
		t.Fatalf("post-wrap p75 = %v, want 9", got)
	}
	// Quantiles must not depend on where the ring cursor happens to sit.
	w2 := obs.NewLatencyWindow(4)
	for _, v := range []float64{10, 7, 9, 8} {
		w2.Add(v)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if a, b := w.Quantile(q), w2.Quantile(q); a != b {
			t.Fatalf("quantile(%v) depends on insertion order: %v vs %v", q, a, b)
		}
	}
}

func TestMetricsLatencyQuantileNearestRank(t *testing.T) {
	m := Metrics{latencies: []float64{0.004, 0.001, 0.003, 0.002}}
	if got := m.LatencyQuantile(0.5); got != 0.002 { // ceil(0.5*4)=2nd
		t.Fatalf("p50 = %v, want 0.002", got)
	}
	if got := m.LatencyQuantile(1); got != 0.004 {
		t.Fatalf("p100 = %v, want 0.004", got)
	}
	if got := (&Metrics{}).LatencyQuantile(0.99); got != 0 {
		t.Fatalf("empty metrics quantile = %v, want 0", got)
	}
}

// TestGoldenMetricsDump pins the exact stable /metrics dump of a seeded
// simulation campaign: the same bytes CI diffs across -workers values must
// also be stable across commits unless the simulator's behavior
// intentionally changes (then: go test ./internal/serve -run Golden -update).
func TestGoldenMetricsDump(t *testing.T) {
	cfg := testCampaignConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(0)
	MLPCampaign(cfg)

	var b strings.Builder
	cfg.Obs.WriteStable(&b)
	got := b.String()
	if !strings.Contains(got, "serve_sim_offered_total") {
		t.Fatalf("dump is missing the sim counters:\n%s", got)
	}
	if spans := cfg.Tracer.Snapshot(); len(spans) == 0 {
		t.Fatal("seeded sim produced no trace spans")
	}

	golden := filepath.Join("testdata", "golden_metrics.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("stable metrics dump drifted from golden (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSimObsDumpWorkerIndependence is the in-test twin of the CI obs-smoke
// diff: the stable dump must not change with scheduling, which the golden
// test can't see because it runs at one worker count.
func TestSimObsDumpWorkerIndependence(t *testing.T) {
	run := func() string {
		cfg := testCampaignConfig()
		cfg.Obs = obs.NewRegistry()
		MLPCampaign(cfg)
		var b strings.Builder
		cfg.Obs.WriteStable(&b)
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("stable dumps differ between runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}
