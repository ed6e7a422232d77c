package mann

import (
	"sort"

	"repro/internal/tensor"
)

// MemOps counts differentiable-memory operations, the quantities X-MANN
// maps onto crossbar hardware (§III): every op also records its digital
// MAC-equivalent cost, which is what a CPU/GPU pays.
type MemOps struct {
	Similarities int64 // full-memory similarity sweeps
	SoftReads    int64
	SoftWrites   int64
	MACs         int64 // digital multiply-accumulate equivalents
}

// DNCMemory is an N×W differentiable memory with the
// differentiable-neural-computer mechanisms (paper refs. [3], [4]) that let
// a MANN build and traverse data structures: a usage vector driving dynamic
// allocation, and a temporal link matrix recording write order so reads can
// walk forward or backward through stored sequences — the capability behind
// the paper's "navigating the London underground" example.
type DNCMemory struct {
	N, W int
	M    *tensor.Matrix

	// Usage ∈ [0,1] per location: how occupied the slot is.
	Usage tensor.Vector
	// Precedence is the degree to which each location was the last write.
	Precedence tensor.Vector
	// Link[i][j] ≈ "location i was written right after location j".
	Link *tensor.Matrix

	Ops MemOps
}

// NewDNCMemory returns an empty memory with all slots free.
func NewDNCMemory(n, w int) *DNCMemory {
	d := &DNCMemory{
		N: n, W: w,
		M:          tensor.NewMatrix(n, w),
		Usage:      tensor.NewVector(n),
		Precedence: tensor.NewVector(n),
		Link:       tensor.NewMatrix(n, n),
	}
	d.M.Fill(1e-6)
	return d
}

// Allocation returns the DNC allocation weighting: free slots (low usage)
// receive weight in order of freeness, a[φ(j)] = (1−u[φ(j)])·Π_{i<j} u[φ(i)]
// over the usage-sorted ordering φ.
func (d *DNCMemory) Allocation() tensor.Vector {
	order := make([]int, d.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return d.Usage[order[a]] < d.Usage[order[b]] })
	a := tensor.NewVector(d.N)
	prod := 1.0
	for _, idx := range order {
		a[idx] = (1 - d.Usage[idx]) * prod
		prod *= d.Usage[idx]
	}
	return a
}

// ContentWeights returns softmax(β·cos(key, M_i)), as in the NTM.
func (d *DNCMemory) ContentWeights(key tensor.Vector, beta float64) tensor.Vector {
	sims := make(tensor.Vector, d.N)
	for i := 0; i < d.N; i++ {
		sims[i] = tensor.CosineSimilarity(key, d.M.Row(i))
	}
	d.Ops.Similarities++
	d.Ops.MACs += int64(d.N) * int64(d.W)
	return tensor.SoftmaxT(sims, beta)
}

// Write performs one DNC write: the write weighting interpolates between
// content lookup and allocation (allocGate), scaled by writeGate, then the
// memory, usage, temporal link matrix and precedence are updated.
func (d *DNCMemory) Write(key tensor.Vector, beta, allocGate, writeGate float64, erase, add tensor.Vector) tensor.Vector {
	if len(erase) != d.W || len(add) != d.W {
		panic("mann: DNC write shape mismatch")
	}
	content := d.ContentWeights(key, beta)
	alloc := d.Allocation()
	ww := make(tensor.Vector, d.N)
	for i := range ww {
		ww[i] = writeGate * (allocGate*alloc[i] + (1-allocGate)*content[i])
	}
	// Memory erase/add.
	for i := 0; i < d.N; i++ {
		if ww[i] == 0 {
			continue
		}
		row := d.M.Row(i)
		for j := range row {
			row[j] = row[j]*(1-ww[i]*erase[j]) + ww[i]*add[j]
		}
	}
	d.Ops.SoftWrites++
	d.Ops.MACs += 2 * int64(d.N) * int64(d.W)
	// Usage grows where written: u = u + w − u∘w.
	for i := range d.Usage {
		d.Usage[i] = d.Usage[i] + ww[i] - d.Usage[i]*ww[i]
	}
	// Temporal links: L[i][j] = (1 − w_i − w_j)·L[i][j] + w_i·p[j].
	for i := 0; i < d.N; i++ {
		wi := ww[i]
		row := d.Link.Row(i)
		for j := 0; j < d.N; j++ {
			if i == j {
				row[j] = 0
				continue
			}
			row[j] = (1-wi-ww[j])*row[j] + wi*d.Precedence[j]
			if row[j] < 0 {
				row[j] = 0
			}
		}
	}
	// Precedence: p = (1 − Σw)·p + w.
	sw := ww.Sum()
	for i := range d.Precedence {
		d.Precedence[i] = (1-sw)*d.Precedence[i] + ww[i]
	}
	return ww
}

// ReadForward returns the forward temporal weighting L·w_prev: attention
// moves to whatever was written immediately after the previously read slot.
func (d *DNCMemory) ReadForward(prev tensor.Vector) tensor.Vector {
	if len(prev) != d.N {
		panic("mann: DNC read shape mismatch")
	}
	d.Ops.MACs += int64(d.N) * int64(d.N)
	return d.Link.MatVec(prev)
}

// ReadBackward returns the backward temporal weighting Lᵀ·w_prev.
func (d *DNCMemory) ReadBackward(prev tensor.Vector) tensor.Vector {
	if len(prev) != d.N {
		panic("mann: DNC read shape mismatch")
	}
	d.Ops.MACs += int64(d.N) * int64(d.N)
	return d.Link.MatVecT(prev)
}

// Read performs the soft read r = wᵀM.
func (d *DNCMemory) Read(w tensor.Vector) tensor.Vector {
	if len(w) != d.N {
		panic("mann: DNC read shape mismatch")
	}
	d.Ops.SoftReads++
	d.Ops.MACs += int64(d.N) * int64(d.W)
	return d.M.MatVecT(w)
}
