package xmann

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// TCPT is the functional model of one transposable crossbar-based
// processing tile (§III-A): a crossbar array that can apply inputs along
// its columns and read currents along rows (dot products, L1 norms) or
// apply inputs along rows and read along columns (soft read), plus the
// parallel rank-1 soft write.
//
// The memory vectors are stored as rows, one crosspoint per element, and —
// as in differentiable memories, whose contents live in [0, 1] after
// squashing — are assumed non-negative so that the all-ones input computes
// L1 norms (the hardware uses differential line pairs for signed values).
type TCPT struct {
	arr  *crossbar.Array
	ones tensor.Vector // the L1-norm input; a hooked array filters a private copy
}

// NewTCPTWith builds a tile on an explicit device model and array config —
// the entry point fault campaigns use to study X-MANN's soft read/write
// pipeline on imperfect arrays. The update mode is forced to
// expected-pulse, as X-MANN writes require.
func NewTCPTWith(rows, cols int, model crossbar.Model, cfg crossbar.Config, rng *rngutil.Source) *TCPT {
	cfg.Update = crossbar.UpdateExpected
	ones := tensor.NewVector(cols)
	ones.Fill(1)
	return &TCPT{arr: crossbar.NewArray(rows, cols, model, cfg, rng), ones: ones}
}

// Array exposes the underlying crossbar so campaign engines can attach
// fault hooks to the tile.
func (t *TCPT) Array() *crossbar.Array { return t.arr }

// Program writes the memory contents (non-negative) into the tile,
// reporting write pulses used and the mean absolute residual so that
// programming under faults is observable.
func (t *TCPT) Program(m *tensor.Matrix) (pulses int, residual float64) {
	checkNonNegative(m)
	return t.arr.Program(m, 8000)
}

// ProgramVerify writes the memory contents with bounded retry and
// exponential pulse-budget backoff — the remediated write path of the
// fault-resilience study.
func (t *TCPT) ProgramVerify(m *tensor.Matrix, pol crossbar.ProgramPolicy) crossbar.ProgramReport {
	checkNonNegative(m)
	return t.arr.ProgramVerify(m, pol)
}

func checkNonNegative(m *tensor.Matrix) {
	for _, v := range m.Data {
		if v < 0 {
			panic("xmann: TCPT memory values must be non-negative")
		}
	}
}

// DotProducts applies the key along the columns and reads the per-row
// currents: dot(memory_i, key) for every stored vector, in one crossbar op.
func (t *TCPT) DotProducts(key tensor.Vector) tensor.Vector { return t.arr.Forward(key) }

// L1Norms applies the all-ones vector along the columns, yielding every
// row's L1 norm in a second crossbar op (§III-A2).
func (t *TCPT) L1Norms() tensor.Vector { return t.arr.Forward(t.ones) }

// SoftReadInto applies the attention weights along the rows and reads
// columns into r: r = wᵀM in a single crossbar op (§III-A3).
func (t *TCPT) SoftReadInto(w, r tensor.Vector) { t.arr.BackwardInto(w, r) }

// SoftWrite performs the additive soft write M += w ⊗ add as one parallel
// rank-1 update.
func (t *TCPT) SoftWrite(w, add tensor.Vector) { t.arr.Update(1, w, add) }

// DistributedMemory partitions an M×D differentiable memory row-wise across
// TCPTs, with the global reduce unit combining partial soft-read outputs —
// the X-MANN dataflow of Fig. 4.
type DistributedMemory struct {
	M, D     int
	TileRows int
	Tiles    []*TCPT
}

// MemoryOptions configures how a DistributedMemory's tiles are built and
// programmed; the zero value reproduces the legacy ideal-device behaviour.
type MemoryOptions struct {
	// Model is the device model (nil = crossbar.Ideal()).
	Model crossbar.Model
	// Cfg is the array config (nil = crossbar.DefaultConfig()); the update
	// mode is forced to expected-pulse either way.
	Cfg *crossbar.Config
	// Policy selects write-verify-retry programming (nil = the legacy
	// single-shot 8000-pulse budget).
	Policy *crossbar.ProgramPolicy
	// Attach, if non-nil, is called with each tile's array before
	// programming — the hook point campaign engines use.
	Attach func(*crossbar.Array)
}

// NewDistributedMemory programs the memory matrix across ceil(M/tileRows)
// ideal tiles.
func NewDistributedMemory(mem *tensor.Matrix, tileRows int, rng *rngutil.Source) *DistributedMemory {
	d, _ := NewDistributedMemoryOpts(mem, tileRows, MemoryOptions{}, rng)
	return d
}

// NewDistributedMemoryOpts programs the memory across tiles per opts and
// reports per-tile programming outcomes (residuals under faults are the
// observable the resilience harness asserts on).
func NewDistributedMemoryOpts(mem *tensor.Matrix, tileRows int, opts MemoryOptions, rng *rngutil.Source) (*DistributedMemory, []crossbar.ProgramReport) {
	if tileRows <= 0 {
		panic("xmann: tileRows must be positive")
	}
	model := opts.Model
	if model == nil {
		model = crossbar.Ideal()
	}
	cfg := crossbar.DefaultConfig()
	if opts.Cfg != nil {
		cfg = *opts.Cfg
	}
	d := &DistributedMemory{M: mem.Rows, D: mem.Cols, TileRows: tileRows}
	var reports []crossbar.ProgramReport
	for start := 0; start < mem.Rows; start += tileRows {
		end := start + tileRows
		if end > mem.Rows {
			end = mem.Rows
		}
		sub := tensor.NewMatrix(end-start, mem.Cols)
		copy(sub.Data, mem.Data[start*mem.Cols:end*mem.Cols])
		tile := NewTCPTWith(end-start, mem.Cols, model, cfg, rng.Child(fmt.Sprintf("tile%d", start)))
		if opts.Attach != nil {
			opts.Attach(tile.arr)
		}
		if opts.Policy != nil {
			reports = append(reports, tile.ProgramVerify(sub, *opts.Policy))
		} else {
			pulses, residual := tile.Program(sub)
			reports = append(reports, crossbar.ProgramReport{Rounds: 1, Pulses: pulses, Residual: residual})
		}
		d.Tiles = append(d.Tiles, tile)
	}
	return d, reports
}

// runTiles executes fn(ti) once per tile. Without fault hooks the tiles
// run concurrently on the par worker pool — in hardware every TCPT operates
// simultaneously (Fig. 4), and in the simulator each tile is an independent
// array with its own random stream, so cross-tile execution order cannot
// change any result. With a hook attached to any tile (campaign engines
// share hook state across tiles) they run sequentially in tile order, which
// by the same independence argument is bit-identical.
func (d *DistributedMemory) runTiles(fn func(ti int)) {
	for _, t := range d.Tiles {
		if t.arr.FaultHook() != nil {
			par.RunSeq(len(d.Tiles), fn)
			return
		}
	}
	par.Run(len(d.Tiles), fn)
}

// Similarity computes the attention distribution over all memory rows with
// the X-MANN similarity measure: softmax(β · dot_i / (‖m_i‖₁ + ε)),
// using two crossbar ops per tile plus the SFU math. Tiles run in parallel,
// each writing its rows' scores into its own slice of one vector.
func (d *DistributedMemory) Similarity(key tensor.Vector, beta float64) tensor.Vector {
	scores := make(tensor.Vector, d.M)
	d.runTiles(func(ti int) {
		t := d.Tiles[ti]
		dots := t.DotProducts(key)
		norms := t.L1Norms()
		s := scores[ti*d.TileRows:]
		for i := range dots {
			s[i] = dots[i] / (norms[i] + 1e-9)
		}
	})
	return tensor.SoftmaxT(scores, beta)
}

// SoftRead computes r = wᵀM: each tile consumes its slice of w in parallel
// and writes its partial output into its own slice of one buffer; the
// global reduce unit sums the partial outputs in ascending tile order (a
// fixed reduction order keeps the floating-point sum identical at every
// worker count).
func (d *DistributedMemory) SoftRead(w tensor.Vector) tensor.Vector {
	if len(w) != d.M {
		panic("xmann: weight length mismatch")
	}
	parts := make(tensor.Vector, len(d.Tiles)*d.D)
	d.runTiles(func(ti int) {
		t := d.Tiles[ti]
		start := ti * d.TileRows
		t.SoftReadInto(w[start:start+t.arr.Rows()], parts[ti*d.D:(ti+1)*d.D])
	})
	out := tensor.NewVector(d.D)
	for ti := range d.Tiles {
		out.Add(parts[ti*d.D : (ti+1)*d.D])
	}
	return out
}

// SoftWrite applies the additive write across tiles in parallel.
func (d *DistributedMemory) SoftWrite(w, add tensor.Vector) {
	if len(w) != d.M {
		panic("xmann: weight length mismatch")
	}
	d.runTiles(func(ti int) {
		t := d.Tiles[ti]
		start := ti * d.TileRows
		t.SoftWrite(w[start:start+t.arr.Rows()], add)
	})
}

// ReferenceSimilarity is the digital reference for Similarity, used in
// verification.
func ReferenceSimilarity(mem *tensor.Matrix, key tensor.Vector, beta float64) tensor.Vector {
	scores := make(tensor.Vector, mem.Rows)
	for i := 0; i < mem.Rows; i++ {
		row := mem.Row(i)
		scores[i] = tensor.Dot(row, key) / (row.Norm1() + 1e-9)
	}
	return tensor.SoftmaxT(scores, beta)
}
