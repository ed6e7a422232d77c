package perfmodel

import (
	"math"
	"testing"
)

func TestCostAddSerial(t *testing.T) {
	c := NewCost()
	c.Add("adc", 10, 2e-12, 1e-9)
	if c.Energy != 20e-12 {
		t.Errorf("Energy = %v", c.Energy)
	}
	if c.Latency != 10e-9 {
		t.Errorf("Latency = %v", c.Latency)
	}
	if c.Ops["adc"] != 10 {
		t.Errorf("Ops = %v", c.Ops)
	}
}

func TestCostAddParallel(t *testing.T) {
	c := NewCost()
	c.AddParallel("tile", 8, 1e-12, 5e-9)
	if c.Energy != 8e-12 {
		t.Errorf("parallel energy should sum: %v", c.Energy)
	}
	if c.Latency != 5e-9 {
		t.Errorf("parallel latency should be single-occurrence: %v", c.Latency)
	}
}

func TestCostMerge(t *testing.T) {
	a := NewCost()
	a.Add("x", 1, 1, 1)
	b := NewCost()
	b.Add("x", 2, 1, 1)
	b.Add("y", 1, 3, 0.5)
	a.Merge(b)
	if a.Energy != 6 || a.Latency != 3.5 || a.Ops["x"] != 3 || a.Ops["y"] != 1 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestSpeedupAndEnergyRatio(t *testing.T) {
	fast := &Cost{Energy: 1, Latency: 2}
	slow := &Cost{Energy: 100, Latency: 50}
	if got := fast.Speedup(slow); got != 25 {
		t.Errorf("Speedup = %v", got)
	}
	if got := fast.EnergyRatio(slow); got != 100 {
		t.Errorf("EnergyRatio = %v", got)
	}
	zero := &Cost{}
	if !math.IsInf(zero.Speedup(slow), 1) {
		t.Error("zero-latency speedup should be +Inf")
	}
}

func TestRoofline(t *testing.T) {
	r := Roofline{PeakFLOPS: 100, MemBW: 10}
	if r.Ridge() != 10 {
		t.Errorf("Ridge = %v", r.Ridge())
	}
	if r.Bound(1) != "memory" || r.Bound(100) != "compute" {
		t.Error("Bound classification wrong")
	}
	// Time is max of compute and memory times.
	if got := r.Time(200, 10); got != 2 {
		t.Errorf("Time = %v, want 2 (compute-limited)", got)
	}
	if got := r.Time(10, 100); got != 10 {
		t.Errorf("Time = %v, want 10 (memory-limited)", got)
	}
}

func TestGPUMatVecMemoryBound(t *testing.T) {
	g := DefaultGPU()
	// A large MVM has intensity ~0.5 FLOP/byte — far below any GPU ridge —
	// so its time must be bandwidth-dominated.
	bytes := 4.0 * (4096*4096 + 4096 + 4096)
	c := g.Kernel(2*4096*4096, bytes)
	bwTime := bytes / g.MemBW
	if c.Latency < bwTime {
		t.Fatalf("latency %v below bandwidth bound %v", c.Latency, bwTime)
	}
	if c.Latency > 3*bwTime+g.KernelLaunch {
		t.Fatalf("latency %v too far above bandwidth bound %v", c.Latency, bwTime)
	}
	if c.Energy <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestGPUKernelLaunchDominatesTinyKernels(t *testing.T) {
	g := DefaultGPU()
	c := g.Kernel(2*8*8, 4*(8*8+8+8))
	if c.Latency < g.KernelLaunch {
		t.Fatalf("tiny kernel latency %v must include launch overhead %v", c.Latency, g.KernelLaunch)
	}
}
