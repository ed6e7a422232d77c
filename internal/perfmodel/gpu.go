package perfmodel

// GPU is a first-order model of a datacenter GPU backed by external DRAM,
// used as the baseline architecture in §III (X-MANN) and §IV (TCAM search).
// Values are representative of a V100-class part; what the reproduction
// relies on is the structure (bandwidth-bound streaming plus fixed kernel
// overhead), not the absolute constants.
type GPU struct {
	// PeakFLOPS is the effective fp32 throughput (FLOP/s).
	PeakFLOPS float64
	// MemBW is the effective device-memory bandwidth (bytes/s).
	MemBW float64
	// EnergyPerFLOP is the compute energy (J/FLOP), core + on-chip movement.
	EnergyPerFLOP float64
	// EnergyPerByte is the DRAM access energy (J/byte).
	EnergyPerByte float64
	// KernelLaunch is the fixed host-side overhead per kernel (s).
	KernelLaunch float64
	// IdlePower is the power draw attributed to the part while the kernel
	// runs (J/s), capturing static/leakage energy of small kernels.
	IdlePower float64
}

// DefaultGPU returns the baseline used across the benchmark tables.
func DefaultGPU() GPU {
	return GPU{
		PeakFLOPS:     10e12,  // 10 TFLOP/s effective fp32
		MemBW:         600e9,  // 600 GB/s effective HBM bandwidth
		EnergyPerFLOP: 10e-12, // 10 pJ/FLOP
		EnergyPerByte: 15e-12, // 15 pJ/byte DRAM access
		KernelLaunch:  5e-6,   // 5 µs per kernel
		IdlePower:     50,     // 50 W attributable static power
	}
}

// Kernel returns the cost of one GPU kernel that performs the given FLOPs
// over the given bytes of memory traffic (roofline-timed), including launch
// overhead and static energy.
func (g GPU) Kernel(flops, bytes float64) *Cost {
	c := NewCost()
	r := Roofline{PeakFLOPS: g.PeakFLOPS, MemBW: g.MemBW}
	t := r.Time(flops, bytes) + g.KernelLaunch
	c.Energy = flops*g.EnergyPerFLOP + bytes*g.EnergyPerByte + t*g.IdlePower
	c.Latency = t
	c.Ops["kernel"] = 1
	c.Ops["flops"] = int64(flops)
	c.Ops["bytes"] = int64(bytes)
	return c
}
