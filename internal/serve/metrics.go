package serve

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Metrics is the per-arm accounting of one campaign run. Counters are in
// requests unless noted.
type Metrics struct {
	// Offered is the total arrival count; Shed were rejected at a full
	// queue; Expired missed their deadline before completing (in queue or
	// mid-retry); Late completed after their deadline; Unavailable found no
	// replica and no fallback.
	Offered, Shed, Expired, Late, Unavailable int
	// Completed requests returned a result; Correct of those matched the
	// digital reference label; Good completed on time AND correct.
	Completed, Correct, Good int
	// Remediation activity. Readmits counts quarantined replicas returned
	// to rotation after a clean post-recalibration canary.
	Retries, Hedges, Recals, Fallbacks, Quarantines, Readmits int
	// Batches counts coalesced blocks dispatched (batching arms only);
	// Coalesced the requests those blocks carried. Both stay zero with
	// batching off and neither is a request disposition.
	Batches, Coalesced int
	// SuspectServed counts completions that returned a verify-failed read
	// because attempts or time ran out (a subset of Completed). Closed
	// counts requests a live Service answered ErrClosed while shutting
	// down; it is always zero in the simulator.
	SuspectServed, Closed int

	latencies []float64 // completion latencies, seconds
}

// Check verifies the terminal-disposition accounting: every offered
// request must end in exactly one of completed, shed, expired,
// unavailable, or closed (Late is a subset of Completed), mirroring the
// fleet simulator's cluster.Metrics.Check discipline.
func (m *Metrics) Check() error {
	terminals := m.Completed + m.Shed + m.Expired + m.Unavailable + m.Closed
	if terminals != m.Offered {
		return fmt.Errorf("serve: %d offered requests but %d terminal dispositions", m.Offered, terminals)
	}
	return nil
}

// Goodput is the fraction of offered requests answered on time and
// correctly — the headline number of R2.
func (m *Metrics) Goodput() float64 {
	if m.Offered == 0 {
		return 0
	}
	return float64(m.Good) / float64(m.Offered)
}

// Accuracy is the fraction of completed requests answered correctly.
func (m *Metrics) Accuracy() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.Correct) / float64(m.Completed)
}

// MissRate is the fraction of offered requests that missed their deadline
// one way or another: shed, expired, completed late, or unservable.
func (m *Metrics) MissRate() float64 {
	if m.Offered == 0 {
		return 0
	}
	return float64(m.Shed+m.Expired+m.Late+m.Unavailable) / float64(m.Offered)
}

// LatencyQuantile reports the q-th completion-latency quantile in seconds by
// nearest rank (0 when nothing completed).
func (m *Metrics) LatencyQuantile(q float64) float64 {
	return obs.Quantile(m.latencies, q)
}

// ArmResult is one (policy, fault level) cell of the campaign table.
type ArmResult struct {
	Policy string
	Level  float64
	M      Metrics
}

// FormatTable renders one pipeline's campaign results as the fixed-width
// deterministic table the R2 acceptance criterion pins: goodput, latency
// quantiles, deadline-miss rate, and accuracy-under-fire for every arm at
// every fault level.
func FormatTable(title string, results []ArmResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %9s %9s %9s %6s %6s %6s %6s %6s\n",
		"policy", "level", "goodput", "p50ms", "p99ms", "miss", "acc",
		"retry", "hedge", "quar", "recal", "fback")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %6.2f %9.4f %9.3f %9.3f %9.4f %9.4f %6d %6d %6d %6d %6d\n",
			r.Policy, r.Level,
			r.M.Goodput(),
			r.M.LatencyQuantile(0.50)*1e3,
			r.M.LatencyQuantile(0.99)*1e3,
			r.M.MissRate(),
			r.M.Accuracy(),
			r.M.Retries, r.M.Hedges, r.M.Quarantines, r.M.Recals, r.M.Fallbacks)
	}
	return b.String()
}
