// Package perfmodel provides the first-order performance and energy
// modeling primitives shared by the accelerator studies in §III (X-MANN),
// §IV (TCAM search) and §V (recommendation characterization): cost
// accumulators, a roofline model, and a parameterized GPU+DRAM baseline.
//
// Absolute constants are literature-typical (documented per field); the
// reproduction targets are the *ratios* between architectures, per
// DESIGN.md §4 substitution 3.
package perfmodel

import "math"

// Cost accumulates energy (joules), latency (seconds) and named op counts
// for one operation or workload.
type Cost struct {
	Energy  float64
	Latency float64
	Ops     map[string]int64
}

// NewCost returns an empty accumulator.
func NewCost() *Cost { return &Cost{Ops: make(map[string]int64)} }

// Add accumulates n occurrences of a serial component op.
func (c *Cost) Add(name string, n int64, energyEach, latencyEach float64) {
	if c.Ops == nil {
		c.Ops = make(map[string]int64)
	}
	c.Ops[name] += n
	c.Energy += float64(n) * energyEach
	c.Latency += float64(n) * latencyEach
}

// AddParallel accumulates n occurrences that run concurrently: energy
// scales with n, latency with the single slowest occurrence.
func (c *Cost) AddParallel(name string, n int64, energyEach, latencyEach float64) {
	if c.Ops == nil {
		c.Ops = make(map[string]int64)
	}
	c.Ops[name] += n
	c.Energy += float64(n) * energyEach
	c.Latency += latencyEach
}

// Merge adds other's energy, latency and op counts into c (serial
// composition).
func (c *Cost) Merge(other *Cost) {
	c.Energy += other.Energy
	c.Latency += other.Latency
	for k, v := range other.Ops {
		if c.Ops == nil {
			c.Ops = make(map[string]int64)
		}
		c.Ops[k] += v
	}
}

// Speedup returns baseline.Latency / c.Latency.
func (c *Cost) Speedup(baseline *Cost) float64 {
	if c.Latency == 0 {
		return math.Inf(1)
	}
	return baseline.Latency / c.Latency
}

// EnergyRatio returns baseline.Energy / c.Energy.
func (c *Cost) EnergyRatio(baseline *Cost) float64 {
	if c.Energy == 0 {
		return math.Inf(1)
	}
	return baseline.Energy / c.Energy
}

// Roofline is the standard two-parameter machine model: performance is
// bounded by peak compute and by memory bandwidth times arithmetic
// intensity.
type Roofline struct {
	PeakFLOPS float64 // FLOP/s
	MemBW     float64 // bytes/s
}

// Ridge returns the arithmetic intensity (FLOP/byte) at which the model
// transitions from memory- to compute-bound.
func (r Roofline) Ridge() float64 { return r.PeakFLOPS / r.MemBW }

// Time returns the roofline execution time for an op with the given totals.
func (r Roofline) Time(flops, bytes float64) float64 {
	return math.Max(flops/r.PeakFLOPS, bytes/r.MemBW)
}

// Bound classifies an op by its intensity.
func (r Roofline) Bound(intensity float64) string {
	if intensity < r.Ridge() {
		return "memory"
	}
	return "compute"
}
