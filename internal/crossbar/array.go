package crossbar

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// UpdateMode selects how the rank-1 update is realized on the array.
type UpdateMode int

const (
	// UpdateStochastic applies the fully parallel stochastic pulse scheme of
	// Fig. 1 (right): independent Bernoulli pulse trains on rows and
	// columns; each coincidence steps the crosspoint once.
	UpdateStochastic UpdateMode = iota
	// UpdateExpected applies the expected number of pulses per device
	// directly (rounded stochastically). It preserves device nonlinearity
	// and bounds while avoiding per-slot train generation; the ablation
	// bench compares the two.
	UpdateExpected
)

// BL is the pulse-train length of stochastic updates (at most 64, the
// width of a train bitmask).
const BL = 31

// Config holds the array-level parameters. The periphery is ideal: reads
// are exact MVMs, with no converter quantization, read noise or IR drop.
type Config struct {
	// Update selects the update realization.
	Update UpdateMode
	// StuckFraction is the probability that a crosspoint is non-yielding
	// and frozen (§II-B.2 imperfect yield).
	StuckFraction float64
	// StuckValueStd freezes faulty devices at a random weight drawn from
	// N(0, StuckValueStd) — the "corrupt device" model — instead of at
	// their pristine initial state (0 keeps the stuck-at-initial model).
	StuckValueStd float64
}

// DefaultConfig returns the defaults: stochastic updates, no faults.
func DefaultConfig() Config {
	return Config{Update: UpdateStochastic}
}

// OpCounts tallies array-level operations; each Forward/Backward/Update is
// one constant-time array operation regardless of size (the O(1) claim of
// §II-A), while DigitalMACs counts what the same work costs digitally.
type OpCounts struct {
	Forwards, Backwards, Updates int64
	Pulses                       int64 // total device pulse events
	DigitalMACs                  int64 // rows·cols per equivalent digital op
}

// Array is a crossbar of devices implementing the nn.Mat contract: forward
// MVM along rows, backward (transposed) MVM along columns, and the parallel
// rank-1 pulse update.
//
// Concurrency contract: an Array is single-writer. Every operation — reads
// included, since Forward/Backward advance op counters and hook state —
// must be serialized by the caller (the tile has one set of peripheral
// drivers; two simultaneous operations have no physical meaning). A
// background reprogrammer therefore may not race a serving read: hand
// ownership off explicitly, e.g. with the per-replica mutex of
// internal/serve.Replica. The guard below turns a violated contract into
// an immediate panic instead of a silent data race.
type Array struct {
	rows, cols int
	cfg        Config
	model      Model
	cells      cells // crosspoint state, row-major planes (see cells.go)
	stuck      []bool
	stuckCount int            // number of true entries in stuck, maintained on every transition
	w          *tensor.Matrix // the weights MVMs read: w.Data is cells.w
	rng        *rngutil.Source
	hook       FaultHook // optional run-time fault injector (see hooks.go)
	busy       atomic.Int32
	Counts     OpCounts
	// arena holds the reusable per-update buffers (pulse trains, per-tile
	// pulse counts, per-tile RNG substreams), sized on first use. It is
	// scratch state, deliberately outside ArrayState: every update derives
	// the tile streams fresh from (rng seed, update counter, tile), so a
	// checkpoint-restored array reproduces them exactly.
	arena updateArena
}

// updateArena is the reusable scratch space of the update hot path — the
// allocations that used to be made per update (13–16 allocs/op in the PR 4
// baseline) now happen once per array.
type updateArena struct {
	rowTrains []uint64
	colTrains []uint64
	pulses    []int64
	tileSrc   []*rngutil.Source
	// colMulUp/colMulDown are the per-column signed step multipliers of the
	// noiseless-linear kernel, indexed by the row's drive direction:
	// colMulUp[j] applies on rows driving up, colMulDown[j] on rows driving
	// down. Precomputing them turns the per-hit sign logic into one multiply.
	colMulUp   []float64
	colMulDown []float64
	// colSlots is the slot-major column index: for each train slot s, the
	// columns whose train has slot s set occupy
	// colSlotBuf[colSlotOff[s]:colSlotOff[s+1]]. The linear kernel walks
	// it so its work is proportional to actual pulse coincidences instead of
	// rows×cols popcount probes.
	colSlotOff []int32
	colSlotBuf []int32
}

// ensureArena sizes the update scratch buffers on first use.
func (a *Array) ensureArena() {
	if a.arena.rowTrains != nil {
		return
	}
	tiles := par.Tiles(a.rows)
	a.arena.rowTrains = make([]uint64, a.rows)
	a.arena.colTrains = make([]uint64, a.cols)
	a.arena.pulses = make([]int64, tiles)
	a.arena.tileSrc = make([]*rngutil.Source, tiles)
	if a.linearKernel() {
		a.arena.colMulUp = make([]float64, a.cols)
		a.arena.colMulDown = make([]float64, a.cols)
		a.arena.colSlotOff = make([]int32, BL+1)
		a.arena.colSlotBuf = make([]int32, BL*a.cols)
	}
}

// NewArray builds a rows×cols crossbar of fresh devices from model.
func NewArray(rows, cols int, model Model, cfg Config, rng *rngutil.Source) *Array {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("crossbar: invalid array shape %dx%d", rows, cols))
	}
	a := &Array{
		rows: rows, cols: cols, cfg: cfg, model: model,
		stuck: make([]bool, rows*cols),
		rng:   rng.Child("array"),
	}
	a.cells = model.newCells(rows*cols, rng.Child("devices"))
	a.w = &tensor.Matrix{Rows: rows, Cols: cols, Data: a.cells.w}
	faultRng := rng.Child("faults")
	// Stuck values draw from a separate stream so that the set of stuck
	// devices is *nested* across fault rates for a fixed seed (device i is
	// stuck iff its private uniform draw < StuckFraction): raising the rate
	// only ever adds faults, which keeps degradation sweeps monotone by
	// construction.
	valueRng := rng.Child("stuck-values")
	lo, hi := model.WeightBounds()
	for i := range a.stuck {
		a.stuck[i] = faultRng.Bernoulli(cfg.StuckFraction)
		if !a.stuck[i] {
			continue
		}
		a.stuckCount++
		if cfg.StuckValueStd > 0 {
			v := valueRng.Normal(0, cfg.StuckValueStd)
			if v < lo {
				v = lo
			} else if v > hi {
				v = hi
			}
			a.cells.freezeAt(i, v) // frozen at the corrupt value
		}
	}
	return a
}

// linearKernel reports whether updates take the noiseless-linear kernel:
// linear-step cells whose pulse response involves no random draws, so the
// coincidence pass can apply it inline on the flat planes.
func (a *Array) linearKernel() bool {
	return a.cells.law == lawLinear && a.cells.lin.CycleNoise == 0
}

// acquire claims the array periphery for one externally driven operation,
// panicking if another goroutine is already inside — the fail-fast
// enforcement of the single-writer contract (see the Array doc comment).
// Hook callbacks that reenter the array mid-operation (AdvanceTime, Freeze,
// FreezeAt) are intentionally unguarded: they run inside an acquired op.
func (a *Array) acquire() {
	if !a.busy.CompareAndSwap(0, 1) {
		panic("crossbar: concurrent Array access — the array is single-writer; serialize callers (see internal/serve.Replica)")
	}
}

func (a *Array) release() { a.busy.Store(0) }

// Rows implements nn.Mat.
func (a *Array) Rows() int { return a.rows }

// Cols implements nn.Mat.
func (a *Array) Cols() int { return a.cols }

// Model returns the device model backing the array.
func (a *Array) Model() Model { return a.model }

// OpOrderPinned implements nn.OrderPinned: while a fault hook is attached,
// batched callers must replay the exact per-sample op order of the
// sequential path, because hook state is order-sensitive and typically
// shared across the arrays of one network.
func (a *Array) OpOrderPinned() bool { return a.hook != nil }

// Weights returns a snapshot of the current (noiseless) device weights.
func (a *Array) Weights() *tensor.Matrix { return a.w.Clone() }

// Forward implements nn.Mat: one analog MVM y = W·x through an ideal
// periphery. The MVM executes as row tiles across the par worker pool —
// all tiles of a crossbar compute in parallel in hardware (§II-A), and the
// software mirrors that — while the hook callbacks stay on the calling
// goroutine, so results are bit-identical at every worker count.
func (a *Array) Forward(x tensor.Vector) tensor.Vector {
	a.acquire()
	defer a.release()
	return a.forwardLocked(x)
}

// forwardLocked is the Forward body, callable while the periphery is
// already owned (batched reads issue many of these under one acquire).
func (a *Array) forwardLocked(x tensor.Vector) tensor.Vector {
	if len(x) != a.cols {
		panic(fmt.Sprintf("crossbar: Forward expects %d inputs, got %d", a.cols, len(x)))
	}
	if a.hook != nil {
		a.hook.BeginOp(a, OpForward)
	}
	xin := x
	if a.hook != nil {
		xin = append(tensor.Vector(nil), x...)
		a.hook.FilterInput(a, OpForward, xin)
	}
	y := par.MatVec(a.w, xin)
	if a.hook != nil {
		a.hook.FilterOutput(a, OpForward, y)
	}
	a.Counts.Forwards++
	a.Counts.DigitalMACs += int64(a.rows) * int64(a.cols)
	return y
}

// ForwardBatch runs one analog MVM per input under a single periphery
// acquisition — the batched read used by serving pipelines and evaluation
// loops. Results are bit-identical to calling Forward on each input in
// order: the MVMs of the whole batch execute as one sample-blocked
// (row-tile × sample-block) grid (par.MatVecBatchInto, which amortizes each
// weight-row load over BatchSpan samples). With a fault hook installed the
// batch degrades to sequential forwards so the hook observes the same
// well-formed op stream either way.
func (a *Array) ForwardBatch(xs []tensor.Vector) []tensor.Vector {
	a.acquire()
	defer a.release()
	ys := make([]tensor.Vector, len(xs))
	if a.hook != nil {
		for s, x := range xs {
			ys[s] = a.forwardLocked(x)
		}
		return ys
	}
	for s, x := range xs {
		if len(x) != a.cols {
			panic(fmt.Sprintf("crossbar: ForwardBatch expects %d inputs, got %d (sample %d)", a.cols, len(x), s))
		}
		ys[s] = make(tensor.Vector, a.rows)
	}
	par.MatVecBatchInto(a.w, xs, ys)
	a.Counts.Forwards += int64(len(xs))
	a.Counts.DigitalMACs += int64(len(xs)) * int64(a.rows) * int64(a.cols)
	return ys
}

// Backward implements nn.Mat: the transposed MVM yᵀ = Wᵀ·d obtained by
// swapping the roles of rows and columns at the periphery. It allocates
// the output and runs BackwardInto.
func (a *Array) Backward(d tensor.Vector) tensor.Vector {
	y := make(tensor.Vector, a.cols)
	a.BackwardInto(d, y)
	return y
}

// BackwardInto is Backward writing yᵀ = Wᵀ·d into y, one element per
// column; y's previous contents are overwritten.
func (a *Array) BackwardInto(d, y tensor.Vector) {
	a.acquire()
	defer a.release()
	a.checkBackward(d)
	if len(y) != a.cols {
		panic(fmt.Sprintf("crossbar: Backward output length %d, want %d", len(y), a.cols))
	}
	if a.hook != nil {
		a.hook.BeginOp(a, OpBackward)
	}
	din := d
	if a.hook != nil {
		din = append(tensor.Vector(nil), d...)
		a.hook.FilterInput(a, OpBackward, din)
	}
	clear(y)
	par.MatVecTInto(a.w, din, y)
	if a.hook != nil {
		a.hook.FilterOutput(a, OpBackward, y)
	}
	a.countBackward()
}

// SkipBackward implements nn.BackwardSkipper: a backward cycle whose result
// the caller discards. With a fault hook attached the cycle is observable
// (the hook sees the op), so the full Backward runs and its result is
// dropped. Otherwise Backward draws nothing and touches no device, and
// only its shape check and op accounting remain: the cycle still counts in
// Counts.Backwards and Counts.DigitalMACs, so ArrayState, checkpoints and
// every count-derived table are the same as after Backward.
func (a *Array) SkipBackward(d tensor.Vector) {
	if a.hook != nil {
		a.Backward(d)
		return
	}
	a.acquire()
	defer a.release()
	a.checkBackward(d)
	a.countBackward()
}

func (a *Array) checkBackward(d tensor.Vector) {
	if len(d) != a.rows {
		panic(fmt.Sprintf("crossbar: Backward expects %d inputs, got %d", a.rows, len(d)))
	}
}

func (a *Array) countBackward() {
	a.Counts.Backwards++
	a.Counts.DigitalMACs += int64(a.rows) * int64(a.cols)
}

// Update implements nn.Mat: W += scale·(u ⊗ v) in expectation, realized with
// device pulses per the configured update mode.
func (a *Array) Update(scale float64, u, v tensor.Vector) {
	a.update(scale, u, v, false)
}

// UpdateReference is Update forced onto the generic per-crosspoint path
// (one cells.pulse call per coincidence) even when the array's device model
// takes the noiseless-linear kernel. It advances the same op
// counters and random streams as Update and is bit-identical to it: the
// reference exists as the scalar twin the engine kernel is tested and
// benchmarked against, exactly as tensor.Matrix.MatVec is the scalar twin
// of the tiled forward kernel.
func (a *Array) UpdateReference(scale float64, u, v tensor.Vector) {
	a.update(scale, u, v, true)
}

func (a *Array) update(scale float64, u, v tensor.Vector, reference bool) {
	a.acquire()
	defer a.release()
	if len(u) != a.rows || len(v) != a.cols {
		panic(fmt.Sprintf("crossbar: Update shape mismatch %dx%d vs %dx%d", a.rows, a.cols, len(u), len(v)))
	}
	if scale == 0 {
		return
	}
	if a.hook != nil {
		a.hook.BeginOp(a, OpUpdate)
	}
	a.Counts.Updates++
	a.Counts.DigitalMACs += int64(a.rows) * int64(a.cols)
	switch a.cfg.Update {
	case UpdateStochastic:
		a.updateStochastic(scale, u, v, reference)
	case UpdateExpected:
		a.updateExpected(scale, u, v)
	default:
		panic("crossbar: unknown update mode")
	}
}

// tileRNG returns tile t's pulse-noise stream for the current update
// operation, positioned at its start. Each stream is keyed by the array's
// base seed, the update counter, and the tile index — never by execution
// order — so a tile draws the identical sequence whether tiles run on one
// worker or eight, and whether the run is fresh or resumed from a
// checkpoint (the counter is part of ArrayState; the streams themselves
// are re-derived per op, so the arena needs no serialization). A tile
// kernel calls it once, the first time the tile needs a draw, so tiles
// the update leaves undriven are never seeded. The streams live in the
// arena and are reseeded in place, so no allocation happens after a
// tile's first draw.
func (a *Array) tileRNG(t int) *rngutil.Source {
	src := a.arena.tileSrc
	if src[t] == nil {
		src[t] = a.rng.Sub(uint64(a.Counts.Updates), uint64(t))
	} else {
		a.rng.SubInto(src[t], uint64(a.Counts.Updates), uint64(t))
	}
	return src[t]
}

// runUpdateTiles executes one tiled update pass over the row tiles of the
// array. Without a fault hook the tiles run on the par worker pool (each
// tile touches a disjoint row range of devices and weight mirror, and
// draws only from its own per-tile keyed stream, fetched through tileRNG).
// With a hook installed the tiles run sequentially in tile order on the
// calling goroutine — the hook's per-op ordering guarantee (see FaultHook)
// must hold, and hooks keep private random streams that are not
// tile-keyed — which by the determinism contract produces the identical
// result. Per-tile pulse counts are reduced into Counts.Pulses in fixed
// tile order.
func (a *Array) runUpdateTiles(fn func(t, lo, hi int) int64) {
	tiles := par.Tiles(a.rows)
	a.ensureArena()
	pulses := a.arena.pulses
	rows := a.rows
	run := par.Run
	if a.hook != nil {
		run = par.RunSeq
	}
	run(tiles, func(t int) {
		lo, hi := par.Bounds(t, rows)
		pulses[t] = fn(t, lo, hi)
	})
	for _, n := range pulses {
		a.Counts.Pulses += n
	}
}

// updateStochastic implements the Fig. 1 (right) scheme: each row i carries
// a Bernoulli(p_i) pulse train, each column j a Bernoulli(q_j) train, over
// BL slots; a crosspoint steps once per coincident slot. The amplification
// factors are chosen so that E[Δw_ij] = scale·u_i·v_j when probabilities do
// not saturate.
//
// The pulse trains draw from the array's serial stream (O(rows+cols) work)
// into the reusable arena, then the O(rows·cols) coincidence/pulse pass runs
// as row tiles on the worker pool. Arrays of noiseless linear-step devices
// take the noiseless-linear kernel (updateStochasticLinear) unless a fault
// hook or UpdateReference forces the generic per-crosspoint path; the two
// are bit-identical.
func (a *Array) updateStochastic(scale float64, u, v tensor.Vector, reference bool) {
	dw := a.model.MeanStep()
	c := math.Sqrt(math.Abs(scale) / (float64(BL) * dw))
	a.ensureArena()
	rowTrains := a.arena.rowTrains
	colTrains := a.arena.colTrains
	for i, ui := range u {
		rowTrains[i] = a.train(math.Abs(ui) * c)
	}
	for j, vj := range v {
		colTrains[j] = a.train(math.Abs(vj) * c)
	}
	sgnScale := math.Signbit(scale)
	if a.linearKernel() && a.hook == nil && !reference {
		a.updateStochasticLinear(sgnScale, u, v)
		return
	}
	cols := a.cols
	a.runUpdateTiles(func(t, lo, hi int) int64 {
		var n int64
		var rng *rngutil.Source
		for i := lo; i < hi; i++ {
			rt := rowTrains[i]
			if rt == 0 {
				continue
			}
			if rng == nil {
				rng = a.tileRNG(t)
			}
			upRow := math.Signbit(u[i]) == sgnScale // sign(u_i·scale) > 0
			base := i * cols
			for j := 0; j < cols; j++ {
				k := bits.OnesCount64(rt & colTrains[j])
				if k == 0 {
					continue
				}
				up := upRow == !math.Signbit(v[j]) // XOR with sign(v_j)
				n += a.pulseFrom(rng, base+j, i, j, k, up)
			}
		}
		return n
	})
}

// updateStochasticLinear is the coincidence pass for arrays of noiseless
// linear-step devices. It exploits two structural facts: the per-pulse step
// involves no random draw and no state dependence, and every cell shares
// the model's step parameters (only the per-cell scale varies). It applies
// the same multiply/add/clip sequence as cells.pulseLinear, with the sign
// and asymmetry folded into per-column tables, straight to the weight
// plane. Because no randomness is consumed, the tile streams are never
// seeded; results are bit-identical to the generic path.
func (a *Array) updateStochasticLinear(sgnScale bool, u, v tensor.Vector) {
	rowTrains := a.arena.rowTrains
	colTrains := a.arena.colTrains
	cols := a.cols
	stuck := a.stuck
	hasStuck := a.stuckCount > 0
	p := &a.cells.lin
	scale := a.cells.scale
	wData := a.cells.w
	dwMin := p.DwMin
	wMin, wMax := p.WMin, p.WMax
	// Per-column signed multipliers fold the per-hit direction logic into a
	// single multiply. A potentiating hit applies (dwMin·scale)·(1+a) and a
	// depressing hit subtracts (dwMin·scale)·(1−a); subtraction is carried by
	// the multiplier's sign, which is exact in IEEE arithmetic (x − s and
	// x + (−s) are the same operation, and a sign flip through a multiply is
	// exact), so results stay bit-identical to cells.pulseLinear.
	mulUp := a.arena.colMulUp
	mulDown := a.arena.colMulDown
	up, down := 1+p.Asymmetry, -(1 - p.Asymmetry)
	for j, vj := range v {
		if !math.Signbit(vj) {
			mulUp[j], mulDown[j] = up, down
		} else {
			mulUp[j], mulDown[j] = down, up
		}
	}
	uniform := a.cells.uniformScale && len(scale) > 0
	if uniform {
		// One shared scale: fold dwMin·scale into the column tables, so the
		// per-pulse step is a single L1 load. (dwMin·s)·m for the shared s is
		// exactly dwMin·scale[idx]·mul[j] for every device.
		base := dwMin * scale[0]
		for j := range mulUp {
			mulUp[j] *= base
			mulDown[j] *= base
		}
	}
	// Slot-major column index: for each of the BL train slots, the columns
	// whose train fires in that slot. The coincidence pass then walks, per
	// row, only the slots the row fires in and only the columns firing in
	// the same slot — work proportional to actual pulse coincidences, not
	// rows×cols probes. Applying a device's k coincident pulses one slot at
	// a time instead of as one burst is bit-identical: each pulse is the same
	// state-independent add-then-clip, so only the count matters, and slots
	// are visited in ascending order per row either way.
	off := a.arena.colSlotOff
	buf := a.arena.colSlotBuf
	fillSlotBuckets(colTrains, BL, off, buf)
	a.runUpdateTiles(func(_, lo, hi int) int64 {
		var n int64
		for i := lo; i < hi; i++ {
			rt := rowTrains[i]
			if rt == 0 {
				continue
			}
			mul := mulDown
			if math.Signbit(u[i]) == sgnScale { // sign(u_i·scale) > 0: row drives up
				mul = mulUp
			}
			base := i * cols
			row := wData[base : base+cols : base+cols]
			for rr := rt; rr != 0; rr &= rr - 1 {
				s := bits.TrailingZeros64(rr)
				for _, j32 := range buf[off[s]:off[s+1]] {
					j := int(j32)
					if hasStuck && stuck[base+j] {
						continue
					}
					var step float64
					if uniform {
						step = mul[j]
					} else {
						step = dwMin * scale[base+j] * mul[j]
					}
					w := row[j] + step
					if w < wMin {
						w = wMin
					} else if w > wMax {
						w = wMax
					}
					row[j] = w
					n++
				}
			}
		}
		return n
	})
}

// fillSlotBuckets builds the slot-major column index of one train set: for
// each of the bl slots, the columns whose train fires in that slot occupy
// buf[off[s]:off[s+1]], in ascending column order.
func fillSlotBuckets(colTrains []uint64, bl int, off, buf []int32) {
	for s := 0; s <= bl; s++ {
		off[s] = 0
	}
	for _, ct := range colTrains {
		for r := ct; r != 0; r &= r - 1 {
			off[bits.TrailingZeros64(r)+1]++
		}
	}
	for s := 0; s < bl; s++ {
		off[s+1] += off[s]
	}
	// Fill slot buckets, columns in ascending order within each slot.
	var cur [64]int32
	for s := 0; s < bl; s++ {
		cur[s] = off[s]
	}
	for j, ct := range colTrains {
		for r := ct; r != 0; r &= r - 1 {
			s := bits.TrailingZeros64(r)
			buf[cur[s]] = int32(j)
			cur[s]++
		}
	}
}

// train samples a BL-slot Bernoulli(p) pulse train as a bitmask.
func (a *Array) train(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	// p > 1 saturates to an all-ones train (every draw is below it); bound
	// management is the trainer's job.
	return a.rng.BernoulliMask(p, BL)
}

// updateExpected applies round-to-pulse updates: n_ij = |scale·u_i·v_j|/Δw
// pulses with stochastic rounding of the fractional part. The rounding
// draws and the pulse cycle noise both come from the tile's keyed stream.
func (a *Array) updateExpected(scale float64, u, v tensor.Vector) {
	dw := a.model.MeanStep()
	a.runUpdateTiles(func(t, lo, hi int) int64 {
		var pulses int64
		var rng *rngutil.Source
		for i := lo; i < hi; i++ {
			ui := u[i]
			if ui == 0 {
				continue
			}
			if rng == nil {
				rng = a.tileRNG(t)
			}
			base := i * a.cols
			su := scale * ui
			for j, vj := range v {
				if vj == 0 {
					continue
				}
				target := su * vj
				n := math.Abs(target) / dw
				k := int(n)
				if rng.Float64() < n-float64(k) {
					k++
				}
				if k == 0 {
					continue
				}
				pulses += a.pulseFrom(rng, base+j, i, j, k, target > 0)
			}
		}
		return pulses
	})
}

// pulseFrom applies k pulses to device idx = row·cols + col (skipping stuck
// devices, routing through the fault hook's write path), drawing cycle
// noise from rng. Callers pass the (row, col) they already hold, so a
// hooked pulse pays no division. It returns the pulses actually issued so
// tile-parallel callers can reduce counts in deterministic order.
func (a *Array) pulseFrom(rng *rngutil.Source, idx, row, col, k int, up bool) int64 {
	if a.stuck[idx] {
		return 0
	}
	if a.hook != nil {
		k = a.hook.FilterPulses(a, row, col, k, up)
		if k <= 0 {
			return 0
		}
	}
	a.cells.pulse(idx, k, up, rng)
	return int64(k)
}

// pulse is the serial path (programming, single-device addressing): noise
// draws come from the array's own stream and the count lands directly on
// Counts.Pulses.
func (a *Array) pulse(idx, row, col, k int, up bool) {
	a.Counts.Pulses += a.pulseFrom(a.rng, idx, row, col, k, up)
}

// UpdateDeviceExact applies exactly k pulses in the given direction to
// device (i, j) — the single-device programming path used by
// mixed-precision trainers, where the digital controller addresses one
// crosspoint at a time.
func (a *Array) UpdateDeviceExact(i, j, k int, up bool) {
	a.acquire()
	defer a.release()
	a.pulse(a.index("UpdateDeviceExact", i, j), i, j, k, up)
}

// PulseAll applies n identical pulses to every (non-stuck) device — the
// "all-ones" parallel pulsing used for symmetry-point programming and for
// the Fig. 2 potentiation/depression traces.
func (a *Array) PulseAll(n int, up bool) {
	a.acquire()
	defer a.release()
	a.pulseAll(n, up)
}

func (a *Array) pulseAll(n int, up bool) {
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			a.pulse(i*a.cols+j, i, j, n, up)
		}
	}
}

// AlternatePulseAll applies iters alternating (up, down) pulse pairs to
// every device, driving each toward its symmetry point — the zero-shifting
// programming step of §II-B.5.
func (a *Array) AlternatePulseAll(iters int) {
	a.acquire()
	defer a.release()
	for it := 0; it < iters; it++ {
		a.pulseAll(1, true)
		a.pulseAll(1, false)
	}
}

// AdvanceTime applies dt seconds of drift/relaxation to every device that
// models it (PCM pairs, ECRAM). Stuck devices do not drift: their
// conductance path is frozen, which also preserves the corrupt value of
// StuckValueStd devices.
func (a *Array) AdvanceTime(dt float64) {
	a.cells.drift(dt, a.stuck)
}

// ResetAll invokes the refresh operation on every resettable device (the
// PCM pair's difference-preserving reset; other models have none).
func (a *Array) ResetAll() {
	a.acquire()
	defer a.release()
	if a.cells.law == lawPCM {
		a.cells.resetPCM(a.stuck)
	}
}

// MaxSaturation reports the worst per-leg saturation across PCM pairs
// (0 for arrays of other device types); trainers reset when it nears 1.
func (a *Array) MaxSaturation() float64 {
	if a.cells.law != lawPCM {
		return 0
	}
	return a.cells.maxSaturationPCM()
}

// StuckCount reports the number of non-yielding devices.
func (a *Array) StuckCount() int { return a.stuckCount }

// Program drives every device toward the corresponding target weight with
// up/down pulses (closed-loop write-verify, maxPulses per device). It is
// used to load externally trained weights for inference experiments.
//
// It reports the total number of write pulses issued and the mean absolute
// residual |w − target| over yielding devices, so that programming under
// faults (write failures, noisy devices that fail to converge within the
// budget) is observable instead of silently stopping at the pulse cap.
// Stuck devices are skipped; their error is a detection/remapping problem
// (package faults), not a programming one. See ProgramVerify for the
// retrying variant with exponential pulse-budget backoff.
//
// Program takes exclusive ownership of the array for the whole pass (the
// single-writer contract of the Array doc comment): a serving read
// interleaved with reprogramming would observe half-written weights and,
// worse, race on the weight mirror. Callers that reprogram in the
// background must hold the same lock their readers use — see
// internal/serve.Replica for the ownership-handoff pattern and its -race
// hammer test.
func (a *Array) Program(target *tensor.Matrix, maxPulses int) (pulsesUsed int, residual float64) {
	a.acquire()
	defer a.release()
	if target.Rows != a.rows || target.Cols != a.cols {
		panic("crossbar: Program shape mismatch")
	}
	for idx := range a.stuck {
		if a.stuck[idx] {
			continue
		}
		p, _ := a.programDevice(idx, target.Data[idx], maxPulses)
		pulsesUsed += p
	}
	return pulsesUsed, a.Residual(target)
}

// programDevice runs the write-verify loop on one yielding device: read,
// compare against want, pulse toward it, stop when within one mean step or
// when the pulse budget runs out. The controller aims at the nearest
// representable weight — a target beyond the device bounds would otherwise
// burn the whole budget pushing into the rail. Pulses are issued through
// the fault-hook write path, so dropped writes consume budget — exactly the
// closed-loop behaviour of a real programming controller. It reports pulses
// attempted and the remaining error against the requested target.
func (a *Array) programDevice(idx int, want float64, maxPulses int) (pulses int, err float64) {
	dw := a.model.MeanStep()
	aim := a.clampToBounds(want)
	w := a.cells.w
	row, col := idx/a.cols, idx%a.cols
	for p := 0; p < maxPulses; p++ {
		diff := aim - w[idx]
		if math.Abs(diff) < dw {
			break
		}
		a.pulse(idx, row, col, 1, diff > 0)
		pulses++
	}
	return pulses, math.Abs(want - w[idx])
}

// clampToBounds limits a requested weight to the model's representable
// range.
func (a *Array) clampToBounds(w float64) float64 {
	lo, hi := a.model.WeightBounds()
	if w < lo {
		return lo
	}
	if w > hi {
		return hi
	}
	return w
}

// ProgramDevice runs closed-loop write-verify on the single crosspoint
// (i, j) — the path column remapping uses to relocate one logical column
// onto a spare. It reports pulses attempted and the remaining |error|
// (for a stuck device: 0 pulses and the frozen value's error).
func (a *Array) ProgramDevice(i, j int, want float64, maxPulses int) (pulses int, err float64) {
	a.acquire()
	defer a.release()
	idx := a.index("ProgramDevice", i, j)
	if a.stuck[idx] {
		return 0, math.Abs(want - a.w.Data[idx])
	}
	return a.programDevice(idx, want, maxPulses)
}

// Residual reports the mean absolute weight error against target over
// yielding (non-stuck) devices — the quantity a programming controller can
// actually drive to zero.
func (a *Array) Residual(target *tensor.Matrix) float64 {
	if target.Rows != a.rows || target.Cols != a.cols {
		panic("crossbar: Residual shape mismatch")
	}
	var sum float64
	n := 0
	for idx := range a.stuck {
		if a.stuck[idx] {
			continue
		}
		sum += math.Abs(a.w.Data[idx] - target.Data[idx])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// index maps (i, j) to a row-major cell index, panicking, in op's name,
// when it lies outside the array.
func (a *Array) index(op string, i, j int) int {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("crossbar: %s index (%d,%d) out of %dx%d", op, i, j, a.rows, a.cols))
	}
	return i*a.cols + j
}
