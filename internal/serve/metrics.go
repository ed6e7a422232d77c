package serve

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Ledger is the request accounting both serving simulators keep: R2's
// dispatch core, under the simulator and the live Service, and R6's fleet
// router each embed it in their Metrics. Every offered request ends in
// exactly one terminal disposition, and Terminal enforces that on the
// request's own done flag. Counters are in requests.
type Ledger struct {
	// Offered is the total arrival count.
	Offered int
	// Completed requests returned a result; Correct of those matched the
	// digital reference label; Good completed on time AND correct.
	Completed, Correct, Good int
	// Shed, Expired and Unavailable are the failed dispositions both
	// drivers share; each Metrics says when its driver counts them.
	Shed, Expired, Unavailable int
	// AccountingViolations counts second terminal dispositions that
	// Terminal refused: always 0 unless the driver itself is broken.
	AccountingViolations int

	latencies []float64 // completion latencies, seconds
}

// Terminal marks a request's one terminal disposition through its done
// flag and reports whether the caller may count it. A second disposition
// of the same request is refused and counted in AccountingViolations,
// never silently absorbed.
func (l *Ledger) Terminal(done *bool) bool {
	if *done {
		l.AccountingViolations++
		return false
	}
	*done = true
	return true
}

// AddLatency records one completion latency in seconds.
func (l *Ledger) AddLatency(sec float64) { l.latencies = append(l.latencies, sec) }

// ObserveLatencies feeds every recorded latency to h, in completion order.
func (l *Ledger) ObserveLatencies(h *obs.Histogram) {
	for _, v := range l.latencies {
		h.Observe(v)
	}
}

// CheckTerminals verifies driver's request accounting: the ledger's
// terminal dispositions plus others, the driver's own, add up to the
// offered load, and no request reached two.
func (l *Ledger) CheckTerminals(driver string, others int) error {
	terminals := l.Completed + l.Shed + l.Expired + l.Unavailable + others
	if terminals != l.Offered {
		return fmt.Errorf("%s: %d offered requests but %d terminal dispositions", driver, l.Offered, terminals)
	}
	if l.AccountingViolations != 0 {
		return fmt.Errorf("%s: %d requests reached two terminal dispositions", driver, l.AccountingViolations)
	}
	return nil
}

// Goodput is the fraction of offered requests answered on time and
// correctly: the headline number of R2 and R6.
func (l *Ledger) Goodput() float64 {
	if l.Offered == 0 {
		return 0
	}
	return float64(l.Good) / float64(l.Offered)
}

// Accuracy is the fraction of completed requests answered correctly.
func (l *Ledger) Accuracy() float64 {
	if l.Completed == 0 {
		return 0
	}
	return float64(l.Correct) / float64(l.Completed)
}

// LatencyQuantile reports the q-th completion-latency quantile in seconds
// by nearest rank (0 when nothing completed).
func (l *Ledger) LatencyQuantile(q float64) float64 {
	return obs.Quantile(l.latencies, q)
}

// Metrics is the per-arm accounting of one campaign run, and the live
// Service's counters. Shed were rejected at a full queue; Expired missed
// their deadline before completing (in queue or mid-retry); Unavailable
// found no replica and no fallback.
type Metrics struct {
	Ledger
	// Late completed after their deadline (a subset of Completed). Closed
	// counts requests a live Service answered ErrClosed while shutting
	// down; it is always zero in the simulator.
	Late, Closed int
	// Remediation activity. Readmits counts quarantined replicas returned
	// to rotation after a clean post-recalibration canary.
	Retries, Hedges, Recals, Fallbacks, Quarantines, Readmits int
	// Batches counts coalesced blocks dispatched (batching arms only);
	// Coalesced the requests those blocks carried. Both stay zero with
	// batching off and neither is a request disposition.
	Batches, Coalesced int
	// SuspectServed counts completions that returned a verify-failed read
	// because attempts or time ran out (a subset of Completed).
	SuspectServed int
}

// Check verifies the terminal-disposition accounting: every offered
// request must end in exactly one of completed, shed, expired,
// unavailable, or closed.
func (m *Metrics) Check() error { return m.CheckTerminals("serve", m.Closed) }

// MissRate is the fraction of offered requests that missed their deadline
// one way or another: shed, expired, completed late, or unservable.
func (m *Metrics) MissRate() float64 {
	if m.Offered == 0 {
		return 0
	}
	return float64(m.Shed+m.Expired+m.Late+m.Unavailable) / float64(m.Offered)
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
