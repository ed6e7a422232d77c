package xmann

import "repro/internal/perfmodel"

// Workload describes one MANN benchmark at the granularity the accelerator
// and GPU models price: differentiable-memory geometry, per-step op mix,
// and controller size.
type Workload struct {
	Name string
	// MemRows × MemDim is the differentiable memory (M entries × D dims).
	MemRows, MemDim int
	// Steps is the number of controller time steps per inference.
	Steps int
	// Per-step op counts on the differentiable memory.
	SimsPerStep, ReadsPerStep, WritesPerStep int
	// CtrlMACs is the controller's multiply-accumulate work per step.
	CtrlMACs float64
}

// MemoryBytes reports the differentiable-memory footprint (fp32).
func (w Workload) MemoryBytes() int64 {
	return int64(w.MemRows) * int64(w.MemDim) * 4
}

// Suite returns the MANN benchmark suite with diverse memory capacities
// (§III-B): sequence tasks, few-shot classification, and large-memory
// question answering, spanning ~100 KB to ~0.5 GB of differentiable memory.
func Suite() []Workload {
	return []Workload{
		{
			Name:    "copy-seq",
			MemRows: 8192, MemDim: 32,
			Steps: 64, SimsPerStep: 1, ReadsPerStep: 1, WritesPerStep: 1,
			CtrlMACs: 4 * 100 * (32 + 100), // small LSTM controller
		},
		{
			Name:    "assoc-recall",
			MemRows: 16384, MemDim: 64,
			Steps: 48, SimsPerStep: 1, ReadsPerStep: 1, WritesPerStep: 1,
			CtrlMACs: 4 * 128 * (64 + 128),
		},
		{
			Name:    "omniglot-5w1s",
			MemRows: 65536, MemDim: 64,
			Steps: 16, SimsPerStep: 1, ReadsPerStep: 1, WritesPerStep: 1,
			CtrlMACs: 4 * 200 * (64 + 200),
		},
		{
			Name:    "omniglot-20w5s",
			MemRows: 262144, MemDim: 128,
			Steps: 24, SimsPerStep: 1, ReadsPerStep: 2, WritesPerStep: 1,
			CtrlMACs: 4 * 256 * (128 + 256),
		},
		{
			Name:    "bigmem-qa",
			MemRows: 1048576, MemDim: 128,
			Steps: 32, SimsPerStep: 2, ReadsPerStep: 2, WritesPerStep: 1,
			CtrlMACs: 4 * 512 * (128 + 512),
		},
	}
}

// InferenceCost prices one full inference of the workload on the X-MANN
// fabric.
func (a *Accelerator) InferenceCost(w Workload) *perfmodel.Cost {
	total := perfmodel.NewCost()
	for s := 0; s < w.Steps; s++ {
		for i := 0; i < w.SimsPerStep; i++ {
			total.Merge(a.SimilarityCost(w.MemRows, w.MemDim))
		}
		for i := 0; i < w.ReadsPerStep; i++ {
			total.Merge(a.SoftReadCost(w.MemRows, w.MemDim))
		}
		for i := 0; i < w.WritesPerStep; i++ {
			total.Merge(a.SoftWriteCost(w.MemRows, w.MemDim))
		}
		total.Merge(a.ControllerCost(w.CtrlMACs))
	}
	return total
}

// GPUInferenceCost prices the same inference on the GPU baseline: every
// memory op streams the M×D matrix between DRAM and the cores (soft writes
// stream it twice for read-modify-write), and each op is a kernel.
func GPUInferenceCost(w Workload, g perfmodel.GPU) *perfmodel.Cost {
	total := perfmodel.NewCost()
	mBytes := float64(w.MemoryBytes())
	for s := 0; s < w.Steps; s++ {
		for i := 0; i < w.SimsPerStep; i++ {
			// Dot products + norms + softmax: ~3 FLOPs/element plus M-sized
			// softmax; traffic is one full matrix scan.
			flops := 3*float64(w.MemRows)*float64(w.MemDim) + 4*float64(w.MemRows)
			total.Merge(g.Kernel(flops, mBytes))
		}
		for i := 0; i < w.ReadsPerStep; i++ {
			flops := 2 * float64(w.MemRows) * float64(w.MemDim)
			total.Merge(g.Kernel(flops, mBytes))
		}
		for i := 0; i < w.WritesPerStep; i++ {
			flops := 3 * float64(w.MemRows) * float64(w.MemDim)
			total.Merge(g.Kernel(flops, 2*mBytes)) // read-modify-write
		}
		// Controller: weights stay resident; compute-bound kernel.
		total.Merge(g.Kernel(2*w.CtrlMACs, 0))
	}
	return total
}

// Comparison is one row of the §III-B table.
type Comparison struct {
	Workload    Workload
	GPU, XMANN  *perfmodel.Cost
	Speedup     float64
	EnergyRatio float64
}

// Compare prices the whole suite on both architectures.
func Compare(suite []Workload, p Params, g perfmodel.GPU) []Comparison {
	acc := New(p)
	out := make([]Comparison, 0, len(suite))
	for _, w := range suite {
		gc := GPUInferenceCost(w, g)
		xc := acc.InferenceCost(w)
		out = append(out, Comparison{
			Workload:    w,
			GPU:         gc,
			XMANN:       xc,
			Speedup:     xc.Speedup(gc),
			EnergyRatio: xc.EnergyRatio(gc),
		})
	}
	return out
}
