package cluster

import (
	"fmt"
	"strings"

	"repro/internal/serve"
)

// Metrics is the per-arm accounting of one cluster campaign cell. Every
// offered request lands in exactly one terminal disposition: Completed,
// RateLimited, Unavailable, Shed, or Expired, which Check pins. Offered
// counts front-door arrivals (open- plus closed-loop). Completed requests
// were answered with an accepted reply before their deadline (the router
// expires a request at its deadline, so late replies are discarded as
// duplicates); of those, Correct matched the digital reference AND were
// model-fresh, and Good is the same count from the offered side.
// Unavailable found no routable replica at admission; Shed ran out of
// non-stale options mid-flight (stale replies rejected, no retries left);
// Expired hit their deadline with no accepted reply.
type Metrics struct {
	serve.Ledger
	// StaleServed were answered from a shard missing model refreshes (an
	// accepted-but-stale reply: only policies without VersionCheck do
	// this; graded incorrect). RateLimited were rejected by a tenant token
	// bucket.
	StaleServed, RateLimited int
	// Remediation and fleet activity.
	Retries, Hedges, StaleRejected, Resyncs int
	Quarantines, Readmits, Crashes          int
	// Message-level accounting: duplicate replies discarded at the router
	// (the not-double-served half of the invariant) and messages lost to
	// partition or the lossy fabric.
	DupReplies, MsgsLost int
}

// Check verifies the request accounting invariant: every offered
// request has exactly one terminal disposition and none was double-served.
func (m *Metrics) Check() error { return m.CheckTerminals("cluster", m.RateLimited) }

// CellResult is one (scenario, level, policy) row of the campaign table.
type CellResult struct {
	Scenario string
	Level    float64
	Policy   string
	M        Metrics
}

// FormatClusterTable renders campaign results as the fixed-width
// deterministic table the R6 acceptance criterion pins: goodput, latency
// quantiles, shed/unavailable/expired rates, staleness, and accuracy for
// every policy under every fault scenario and level.
func FormatClusterTable(title string, results []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-10s %6s %-8s %8s %8s %8s %7s %7s %7s %7s %8s %6s %6s\n",
		"scenario", "level", "policy", "goodput", "p50ms", "p99ms",
		"shed", "unavail", "expired", "stale", "acc", "retry", "hedge")
	for _, r := range results {
		shed := r.M.Shed + r.M.RateLimited
		fmt.Fprintf(&b, "%-10s %6.2f %-8s %8.4f %8.3f %8.3f %7d %7d %7d %7d %8.4f %6d %6d\n",
			r.Scenario, r.Level, r.Policy,
			r.M.Goodput(),
			r.M.LatencyQuantile(0.50)*1e3,
			r.M.LatencyQuantile(0.99)*1e3,
			shed, r.M.Unavailable, r.M.Expired, r.M.StaleServed,
			r.M.Accuracy(),
			r.M.Retries, r.M.Hedges)
	}
	return b.String()
}
