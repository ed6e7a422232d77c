package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny builds a fresh instance of w, traced or not, and runs ops ops.
func runTiny(t *testing.T, w workload, seed uint64, ops int, tr *tracer) *outcome {
	t.Helper()
	inst, err := w.setup(seed, tr)
	if err != nil {
		t.Fatalf("%s setup: %v", w.name, err)
	}
	defer inst.close()
	return inst.run(ops)
}

// TestTracedRunsMatchUntraced shows that the tracing wrappers change no
// code path: at a tiny size, a traced and an untraced run of each
// deterministic workload produce identical outputs and exact counts.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, tc := range []struct {
		w      workload
		ops    int
		counts []string
	}{
		{trainWorkload, 4, []string{"crossbar.pulses"}},
		{mannWorkload, 6, []string{"crossbar.pulses", "cam.searches"}},
		{campaignWorkload, 1, []string{"sim.requests"}},
	} {
		t.Run(tc.w.name, func(t *testing.T) {
			setEnv()
			plain := runTiny(t, tc.w, 3, tc.ops, nil)
			traced := runTiny(t, tc.w, 3, tc.ops, newTracer())
			if plain.fingerprint == "" || plain.fingerprint != traced.fingerprint {
				t.Errorf("fingerprints differ:\n  untraced %s\n  traced   %s", plain.fingerprint, traced.fingerprint)
			}
			for _, c := range tc.counts {
				if plain.layers[c] == 0 || plain.layers[c] != traced.layers[c] {
					t.Errorf("%s: untraced %v, traced %v", c, plain.layers[c], traced.layers[c])
				}
			}
			if len(plain.problems)+len(traced.problems) > 0 {
				t.Errorf("checks failed: %v %v", plain.problems, traced.problems)
			}
		})
	}
}

// TestServeTracedRun checks that a short traced serve-open run answers
// every request correctly and fills the serve-layer metrics of both phases.
func TestServeTracedRun(t *testing.T) {
	setEnv()
	out := runTiny(t, serveWorkload, 3, 400, newTracer())
	if out.failed != 0 {
		t.Fatalf("failed checks: %v", out.problems)
	}
	for _, phase := range []string{"light.", "peak."} {
		for _, m := range []string{"serve.dispatch_ms", "serve.batch_size", "serve.useful_ratio"} {
			if out.layers[phase+m] <= 0 {
				t.Errorf("%s%s = %v, want > 0", phase, m, out.layers[phase+m])
			}
		}
	}
}

// TestRunPrintsEveryMetric checks the result line of both run modes.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, tc := range []struct {
		traced bool
		want   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		var log bytes.Buffer
		res, err := run("mann-memory", 5, 1, tc.traced, &log)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d\n%s", tc.traced, res.Correct, res.Attempted, res.Failed, log.String())
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace=%v: %d metrics, want %d", tc.traced, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", tc.traced, m.name, got, m.unit)
			}
		}
		if !strings.Contains(log.String(), `"gomaxprocs"`) {
			t.Errorf("trace=%v: no environment record in\n%s", tc.traced, log.String())
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run("bogus", 1, 1, false, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestP99(t *testing.T) {
	xs := make([]float64, 3*p99Window)
	for i := range xs {
		xs[i] = float64(i % p99Window)
	}
	// One window with a burst of slow samples does not move the figure.
	for i := 0; i < 100; i++ {
		xs[i] = 1e6
	}
	if got, want := p99(xs), float64(p99Window*99/100-1); got != want {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if got := p99([]float64{1, 2, 3}); got != 3 {
		t.Errorf("short series p99 = %v, want 3", got)
	}
}

func TestCompareRefusesDifferentCoreCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		p := filepath.Join(dir, name)
		body := fmt.Sprintf(`{"env":{"nproc":%d,"gomaxprocs":1,"par_workers":1,"service_workers":2},"workload":"w"}`, nproc) + "\n" +
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"m":{"value":2,"unit":"ms"}}}` + "\n"
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a", 2), write("b", 2), write("c", 4)
	var out bytes.Buffer
	if err := compareMain([]string{a, b}, &out); err != nil {
		t.Fatalf("same core counts: %v", err)
	}
	if !strings.Contains(out.String(), "1.0000") {
		t.Errorf("compare output lacks the ratio:\n%s", out.String())
	}
	if err := compareMain([]string{a, c}, &out); err == nil || !strings.Contains(err.Error(), "core counts") {
		t.Fatalf("different core counts: err = %v", err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the command prints %d", c.list, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", c.list, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
	for _, w := range bench.Workload {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}
