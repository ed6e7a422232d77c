package cluster

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rngutil"
)

// quickResults runs the CI-gated quick campaign once and shares the rows
// across the acceptance tests (the campaign is deterministic, so sharing
// changes nothing).
var (
	campOnce sync.Once
	campRows []CellResult
)

func quickResults(t *testing.T) []CellResult {
	t.Helper()
	campOnce.Do(func() {
		campRows = Campaign(DefaultCampaignConfig(1234, true))
	})
	return campRows
}

func findCell(t *testing.T, rows []CellResult, scenario string, level float64, policy string) *Metrics {
	t.Helper()
	for i := range rows {
		r := &rows[i]
		if r.Scenario == scenario && r.Level == level && r.Policy == policy {
			return &r.M
		}
	}
	t.Fatalf("no cell %s/%.2f/%s in campaign results", scenario, level, policy)
	return nil
}

// TestClusterCampaignDeterministic pins the acceptance criterion: the
// table and the stable metrics dump are byte-identical across repeated
// runs and across tile-engine worker counts.
func TestClusterCampaignDeterministic(t *testing.T) {
	run := func(workers int) (string, string) {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		reg := obs.NewRegistry()
		cfg := DefaultCampaignConfig(1234, true)
		cfg.Obs = reg
		var table, dump strings.Builder
		if err := RunR6(&table, cfg); err != nil {
			t.Fatalf("RunR6: %v", err)
		}
		reg.WriteStable(&dump)
		return table.String(), dump.String()
	}
	t1, d1 := run(1)
	t4, d4 := run(4)
	if t1 != t4 {
		t.Fatalf("campaign table differs between -workers 1 and 4:\n--- w1 ---\n%s--- w4 ---\n%s", t1, t4)
	}
	if d1 != d4 {
		t.Fatal("stable metrics dump differs between -workers 1 and 4")
	}
	t1b, _ := run(1)
	if t1 != t1b {
		t.Fatal("campaign table differs between two identical runs")
	}
}

// TestClusterAccounting pins the no-lost/no-double invariant: in every
// cell — partitions included — every offered request reaches exactly one
// terminal disposition, and race-losing replies are discarded, never
// double-served.
func TestClusterAccounting(t *testing.T) {
	for _, r := range quickResults(t) {
		if err := r.M.Check(); err != nil {
			t.Errorf("%s/%.2f/%s: %v", r.Scenario, r.Level, r.Policy, err)
		}
		if r.M.Offered == 0 {
			t.Errorf("%s/%.2f/%s: no traffic reached the fleet", r.Scenario, r.Level, r.Policy)
		}
	}
}

// TestTerminalRefusesSecondDisposition calls the router's terminal twice
// on one closed-loop request. The second call is refused, counted as a
// violation that fails Check, and does not push a second think-time
// arrival for the client.
func TestTerminalRefusesSecondDisposition(t *testing.T) {
	s := &sim{
		cfg:     SimConfig{Duration: 10, Traffic: TrafficConfig{Tenants: []Tenant{{ThinkTime: 0.05}}}},
		thinkRN: rngutil.New(1),
	}
	req := &cReq{client: 0}
	s.m.Offered++
	if !s.terminal(0, req) {
		t.Fatal("first disposition refused")
	}
	s.m.Completed++
	if s.terminal(0, req) {
		t.Fatal("second disposition accepted")
	}
	if s.events.Len() != 1 {
		t.Fatalf("%d client arrivals pushed, want 1", s.events.Len())
	}
	if s.m.AccountingViolations != 1 {
		t.Fatalf("AccountingViolations = %d, want 1", s.m.AccountingViolations)
	}
	err := s.m.Check()
	if err == nil || !strings.Contains(err.Error(), "1 requests reached two terminal dispositions") {
		t.Fatalf("Check() = %v, want it to name one violation", err)
	}
}

// TestClusterDominance pins the headline robustness claim: the full
// remediation stack weakly dominates the no-remediation arm on BOTH
// goodput and accuracy at every non-zero node-fault level, in every
// scenario.
func TestClusterDominance(t *testing.T) {
	rows := quickResults(t)
	cfg := DefaultCampaignConfig(1234, true)
	for _, sc := range cfg.Scenarios {
		for _, lv := range cfg.Levels {
			none := findCell(t, rows, sc, lv, "none")
			full := findCell(t, rows, sc, lv, "full")
			if full.Goodput() < none.Goodput() {
				t.Errorf("%s/%.2f: full goodput %.4f < none %.4f", sc, lv, full.Goodput(), none.Goodput())
			}
			if full.Accuracy() < none.Accuracy() {
				t.Errorf("%s/%.2f: full accuracy %.4f < none %.4f", sc, lv, full.Accuracy(), none.Accuracy())
			}
		}
	}
}

// TestMinorityPartitionShedsNotStale pins the partition invariant: under
// every partition cell the full stack never serves a stale shard — stale
// replies are rejected and the request retried or shed — while the
// no-remediation arm demonstrably does serve stale (the hazard is real,
// not vacuously avoided).
func TestMinorityPartitionShedsNotStale(t *testing.T) {
	rows := quickResults(t)
	cfg := DefaultCampaignConfig(1234, true)
	staleNoneTotal := 0
	for _, lv := range cfg.Levels {
		for _, pol := range []string{"detect", "full"} {
			m := findCell(t, rows, "partition", lv, pol)
			if m.StaleServed != 0 {
				t.Errorf("partition/%.2f: %s served %d stale replies, want 0", lv, pol, m.StaleServed)
			}
		}
		staleNoneTotal += findCell(t, rows, "partition", lv, "none").StaleServed
	}
	if staleNoneTotal == 0 {
		t.Error("no-remediation arm served no stale replies under partition — the staleness hazard is not being exercised")
	}
}

// TestClusterRemediationActive sanity-checks that the stack's layers all
// fire somewhere in the campaign (a knob wired to nothing would pass the
// dominance test vacuously).
func TestClusterRemediationActive(t *testing.T) {
	var hedges, retries, quarantines, readmits, resyncs, crashes int
	for _, r := range quickResults(t) {
		hedges += r.M.Hedges
		retries += r.M.Retries
		quarantines += r.M.Quarantines
		readmits += r.M.Readmits
		resyncs += r.M.Resyncs
		crashes += r.M.Crashes
	}
	for name, v := range map[string]int{
		"hedges": hedges, "retries": retries, "quarantines": quarantines,
		"readmits": readmits, "resyncs": resyncs, "crashes": crashes,
	} {
		if v == 0 {
			t.Errorf("campaign never exercised %s", name)
		}
	}
}

// TestTokenBucket covers the admission limiter: burst capacity, refill,
// and the unlimited zero-rate bucket.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(10, 2)
	if !b.take(0) || !b.take(0) {
		t.Fatal("burst capacity 2 should admit two immediate requests")
	}
	if b.take(0) {
		t.Fatal("third immediate request should be rate-limited")
	}
	if !b.take(0.1) {
		t.Fatal("after 0.1s at 10/s one token should have refilled")
	}
	var unlimited *tokenBucket
	if !unlimited.take(0) || !newTokenBucket(0, 0).take(5) {
		t.Fatal("nil/zero-rate buckets must admit everything")
	}
}

// TestTrafficGenerator covers the arrival process: strictly increasing
// arrivals, rate curve below the thinning envelope everywhere, and
// determinism in the seed.
func TestTrafficGenerator(t *testing.T) {
	cfg := DefaultCampaignConfig(1, true).Traffic
	for x := 0.0; x < 10; x += 0.05 {
		if cfg.Rate(x) > cfg.maxRate()+1e-9 {
			t.Fatalf("Rate(%.2f) = %.1f exceeds the thinning envelope %.1f", x, cfg.Rate(x), cfg.maxRate())
		}
	}
	draw := func() []float64 {
		g := newTrafficGen(cfg, rngutil.New(99))
		var ts []float64
		t0 := 0.0
		for i := 0; i < 200; i++ {
			t0 = g.Next(t0)
			ts = append(ts, t0)
		}
		return ts
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across same-seed generators: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("arrivals not strictly increasing at %d: %v then %v", i, a[i-1], a[i])
		}
		if math.IsInf(a[i], 0) || math.IsNaN(a[i]) {
			t.Fatalf("arrival %d is not finite: %v", i, a[i])
		}
	}
}
