package cam

import (
	"math"

	"repro/internal/perfmodel"
)

// CellTech captures the circuit-level parameters of one TCAM cell
// technology. The two instances below are calibrated so that the
// architecture-level ratios match the paper's reported numbers (C5: 16T
// CMOS TCAM vs DRAM+GPU search ≈ 24× energy / ≈ 2582× latency; C6: 2-FeFET
// vs 16T CMOS ≈ 2.4× energy / ≈ 1.1× latency) — see DESIGN.md §4,
// substitution 4.
type CellTech struct {
	Name string
	// TransistorsPerCell is the cell footprint (16 for CMOS, 2 for FeFET);
	// it drives the area/capacity argument of §IV-C.
	TransistorsPerCell int
	// SearchEnergyPerCell is the energy per bit-cell per search (J),
	// covering search-line toggling and match-line charge share.
	SearchEnergyPerCell float64
	// PrechargeTime is the fixed match-line precharge phase (s).
	PrechargeTime float64
	// SLTimePerRow is the search-line driver delay per attached row (s);
	// taller banks load the drivers more.
	SLTimePerRow float64
	// SenseTime is the match-line sense phase (s).
	SenseTime float64
}

// CMOS16T returns the conventional 16-transistor CMOS TCAM cell.
func CMOS16T() CellTech {
	return CellTech{
		Name:                "cmos-16t",
		TransistorsPerCell:  16,
		SearchEnergyPerCell: 3.2e-12,
		PrechargeTime:       0.8e-9,
		SLTimePerRow:        2.0e-12,
		SenseTime:           0.3e-9,
	}
}

// FeFET2T returns the 2-FeFET TCAM cell of the paper's ref. [9]: an 8×
// smaller cell whose lighter search lines shave latency and whose
// ferroelectric switching keeps per-cell search energy below CMOS.
func FeFET2T() CellTech {
	return CellTech{
		Name:                "fefet-2t",
		TransistorsPerCell:  2,
		SearchEnergyPerCell: 1.33e-12,
		PrechargeTime:       0.8e-9,
		SLTimePerRow:        1.62e-12,
		SenseTime:           0.3e-9,
	}
}

// Geometry fixes the physical banking of a logical TCAM.
type Geometry struct {
	// BankRows is the maximum rows per physical bank; larger stores search
	// multiple banks in parallel.
	BankRows int
	// CombineTime/CombineEnergy price the cross-bank best-match reduce per
	// additional bank.
	CombineTime   float64
	CombineEnergy float64
}

// DefaultGeometry matches the 512–1024-row banks typical of TCAM macros.
func DefaultGeometry() Geometry {
	return Geometry{BankRows: 1024, CombineTime: 0.1e-9, CombineEnergy: 50e-15}
}

// Engine prices searches of a logical TCAM built from a cell technology
// and a banking geometry.
type Engine struct {
	Tech CellTech
	Geo  Geometry
}

// SearchCost returns the energy/latency of one fully parallel search over
// rows×width cells. Banks search concurrently: energy sums, latency takes
// one bank plus the best-match combine tree.
func (e Engine) SearchCost(rows, width int) *perfmodel.Cost {
	c := perfmodel.NewCost()
	if rows == 0 {
		return c
	}
	banks := (rows + e.Geo.BankRows - 1) / e.Geo.BankRows
	bankRows := rows
	if bankRows > e.Geo.BankRows {
		bankRows = e.Geo.BankRows
	}
	cells := int64(rows) * int64(width)
	c.Add("tcam.cell-search", cells, e.Tech.SearchEnergyPerCell, 0)
	lat := e.Tech.PrechargeTime + e.Tech.SLTimePerRow*float64(bankRows) + e.Tech.SenseTime
	c.AddParallel("tcam.search", int64(banks), 0, lat)
	if banks > 1 {
		levels := int64(math.Ceil(math.Log2(float64(banks))))
		c.Add("tcam.combine", levels, e.Tech.SearchEnergyPerCell, e.Geo.CombineTime)
		c.Energy += float64(banks-1) * e.Geo.CombineEnergy
	}
	return c
}

// Transistors reports the total transistor count of a rows×width array —
// the §IV-C capacity argument for compact cells.
func (e Engine) Transistors(rows, width int) int64 {
	return int64(rows) * int64(width) * int64(e.Tech.TransistorsPerCell)
}

// GPUSearchBaseline prices the conventional MANN memory search: streaming M
// stored D-dimensional fp32 vectors from device memory to the GPU and
// computing cosine similarities (≈3 FLOPs per element for dot product and
// norms). Only dynamic (compute + memory transfer) energy is attributed, as
// in the memory-search comparisons of the paper's ref. [9].
func GPUSearchBaseline(m, d int, g perfmodel.GPU) *perfmodel.Cost {
	g.IdlePower = 0
	flops := 3 * float64(m) * float64(d)
	bytes := 4 * (float64(m)*float64(d) + float64(d) + float64(m))
	return g.Kernel(flops, bytes)
}
