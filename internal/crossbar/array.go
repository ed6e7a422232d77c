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

// Config holds the peripheral-circuit and array-level parameters.
type Config struct {
	// BL is the pulse-train length for stochastic updates (≤ 64).
	BL int
	// Update selects the update realization.
	Update UpdateMode
	// ReadNoise is the std of additive output noise per MVM component,
	// in weight·input units (0 = noiseless periphery).
	ReadNoise float64
	// ADCBits quantizes MVM outputs to this many bits over
	// [-OutputRange, +OutputRange]; 0 disables output quantization.
	ADCBits int
	// OutputRange is the ADC full-scale (bound management); outputs clip.
	OutputRange float64
	// DACBits quantizes inputs over [-InputRange, +InputRange]; 0 disables.
	DACBits int
	// InputRange is the DAC full-scale; inputs clip.
	InputRange float64
	// StuckFraction is the probability that a crosspoint is non-yielding
	// and frozen (§II-B.2 imperfect yield).
	StuckFraction float64
	// StuckValueStd freezes faulty devices at a random weight drawn from
	// N(0, StuckValueStd) — the "corrupt device" model — instead of at
	// their pristine initial state (0 keeps the stuck-at-initial model).
	StuckValueStd float64
	// IRDrop is a first-order interconnect attenuation coefficient: outputs
	// are scaled by 1 − IRDrop·cols/256, the voltage-drop penalty that
	// grows with array width for low-resistance devices (§II-A).
	IRDrop float64
}

// DefaultConfig returns sensible periphery defaults: 31-slot trains,
// stochastic updates, ideal converters, no faults.
func DefaultConfig() Config {
	return Config{BL: 31, Update: UpdateStochastic, OutputRange: 10, InputRange: 1}
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
// included, since Forward/Backward consume the array's random stream and
// advance op counters and hook state — must be serialized by the caller
// (the tile has one set of peripheral drivers; two simultaneous operations
// have no physical meaning). A background reprogrammer therefore may not
// race a serving read: hand ownership off explicitly, e.g. with the
// per-replica mutex of internal/serve.Replica. The guard below turns a
// violated contract into an immediate panic instead of a silent data race.
type Array struct {
	rows, cols int
	cfg        Config
	model      Model
	dev        []Device // row-major
	stuck      []bool
	stuckCount int            // number of true entries in stuck, maintained on every transition
	w          *tensor.Matrix // mirror of device weights for fast MVM
	rng        *rngutil.Source
	hook       FaultHook // optional run-time fault injector (see hooks.go)
	busy       atomic.Int32
	Counts     OpCounts

	// lin aliases dev as concrete noiseless linear-step devices when the
	// model supports the specialized update kernel (nil otherwise). The
	// devices themselves are shared — the slice only skips the interface
	// dispatch on the update hot path.
	lin []*linearStepDevice
	// linScale is the flat copy of each linear device's step-size scale and
	// linP the shared step parameters: the specialized kernel reads these
	// (and the weight mirror) instead of chasing pointers into 64-byte
	// device objects, which is where the generic path spends most of its
	// time on large arrays. When every device carries the same scale
	// (DeviceVar 0, or a checkpoint that restored uniform scales) linUniform
	// is set and the kernel drops the per-device scale load entirely,
	// folding dwMin·scale into the per-column step table.
	linScale   []float64
	linP       LinearStepParams
	linUniform bool
	// linDirty marks that the specialized kernel has advanced the weight
	// mirror without writing per-device state back; syncLin settles the
	// debt before any path reads or pulses devices directly. For non-stuck
	// linear devices the mirror is exactly the device weight, so the
	// deferred write-back is lossless.
	linDirty bool
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
	// specialized linear kernel, indexed by the row's drive direction:
	// colMulUp[j] applies on rows driving up, colMulDown[j] on rows driving
	// down. Precomputing them turns the per-hit sign logic into one multiply.
	colMulUp   []float64
	colMulDown []float64
	// colSlots is the slot-major column index: for each train slot s, the
	// columns whose train has slot s set occupy
	// colSlotBuf[colSlotOff[s]:colSlotOff[s+1]]. The specialized kernel walks
	// it so its work is proportional to actual pulse coincidences instead of
	// rows×cols popcount probes.
	colSlotOff []int32
	colSlotBuf []int32
}

// ensureArena sizes the update scratch buffers on first use, and resizes
// the per-tile ones if the active par.Plan has changed the tile grid since
// (a plan is normally fixed for the life of the process, but the arena is
// scratch — it must simply follow the grid the kernels run on).
func (a *Array) ensureArena() {
	tiles := par.Tiles(a.rows)
	if a.arena.rowTrains != nil && len(a.arena.pulses) >= tiles {
		return
	}
	a.arena.rowTrains = make([]uint64, a.rows)
	a.arena.colTrains = make([]uint64, a.cols)
	a.arena.pulses = make([]int64, tiles)
	a.arena.tileSrc = make([]*rngutil.Source, tiles)
	if a.lin != nil {
		a.arena.colMulUp = make([]float64, a.cols)
		a.arena.colMulDown = make([]float64, a.cols)
		a.arena.colSlotOff = make([]int32, a.cfg.BL+1)
		a.arena.colSlotBuf = make([]int32, a.cfg.BL*a.cols)
	}
}

// NewArray builds a rows×cols crossbar of fresh devices from model.
func NewArray(rows, cols int, model Model, cfg Config, rng *rngutil.Source) *Array {
	if cfg.BL <= 0 || cfg.BL > 64 {
		panic(fmt.Sprintf("crossbar: BL must be in [1,64], got %d", cfg.BL))
	}
	a := &Array{
		rows: rows, cols: cols, cfg: cfg, model: model,
		dev:   make([]Device, rows*cols),
		stuck: make([]bool, rows*cols),
		w:     tensor.NewMatrix(rows, cols),
		rng:   rng.Child("array"),
	}
	devRng := rng.Child("devices")
	faultRng := rng.Child("faults")
	// Stuck values draw from a separate stream so that the set of stuck
	// devices is *nested* across fault rates for a fixed seed (device i is
	// stuck iff its private uniform draw < StuckFraction): raising the rate
	// only ever adds faults, which keeps degradation sweeps monotone by
	// construction.
	valueRng := rng.Child("stuck-values")
	lo, hi := model.WeightBounds()
	for i := range a.dev {
		a.dev[i] = model.New(devRng)
		a.stuck[i] = faultRng.Bernoulli(cfg.StuckFraction)
		if a.stuck[i] {
			a.stuckCount++
		}
		a.w.Data[i] = a.dev[i].Weight()
		if a.stuck[i] && cfg.StuckValueStd > 0 {
			v := valueRng.Normal(0, cfg.StuckValueStd)
			if v < lo {
				v = lo
			} else if v > hi {
				v = hi
			}
			a.w.Data[i] = v // frozen at the corrupt value
		}
	}
	if lm, ok := model.(*LinearStepModel); ok && lm.P.CycleNoise == 0 {
		// Noiseless linear-step devices take the specialized update kernel:
		// their pulse response involves no random draws, so the coincidence
		// pass can apply it inline without interface dispatch.
		a.lin = make([]*linearStepDevice, len(a.dev))
		a.linScale = make([]float64, len(a.dev))
		a.linP = lm.P
		for i, d := range a.dev {
			a.lin[i] = d.(*linearStepDevice)
			a.linScale[i] = a.lin[i].scale
		}
		a.refreshLinUniform()
	}
	return a
}

// refreshLinUniform recomputes whether every linear device shares one step
// scale (checked by value, so it also holds after checkpoint restore).
func (a *Array) refreshLinUniform() {
	a.linUniform = true
	for _, s := range a.linScale {
		if s != a.linScale[0] {
			a.linUniform = false
			return
		}
	}
}

// syncLin writes the mirror weights of a specialized-kernel array back into
// the per-device state. The fast update kernel advances only the mirror
// (a.w.Data is exactly d.w for every non-stuck linear device); every path
// that reads or pulses devices directly calls syncLin first, so device
// state is always settled before it is observed. Stuck devices are skipped:
// their mirror entry may hold a frozen corrupt value that is deliberately
// distinct from the pristine device state.
func (a *Array) syncLin() {
	if !a.linDirty {
		return
	}
	for idx, d := range a.lin {
		if !a.stuck[idx] {
			d.w = a.w.Data[idx]
		}
	}
	a.linDirty = false
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

// quantize maps x onto the 2^bits-level uniform grid spanning
// [-fullScale, fullScale] (endpoints included), clipping out-of-range inputs.
func quantize(x float64, bits int, fullScale float64) float64 {
	if bits <= 0 {
		return x
	}
	n := int64(1) << uint(bits) // number of levels
	step := 2 * fullScale / float64(n-1)
	k := int64(math.Round((x + fullScale) / step))
	if k < 0 {
		k = 0
	} else if k > n-1 {
		k = n - 1
	}
	return -fullScale + float64(k)*step
}

func (a *Array) irFactor() float64 {
	f := 1 - a.cfg.IRDrop*float64(a.cols)/256
	if f < 0 {
		return 0
	}
	return f
}

// Forward implements nn.Mat: one analog MVM y = W·x with DAC quantization,
// read noise, IR-drop attenuation, and ADC quantization. The MVM executes
// as row tiles across the par worker pool — all tiles of a crossbar compute
// in parallel in hardware (§II-A), and the software mirrors that — while
// the periphery (DAC, hook callbacks, read noise from the array's private
// stream, ADC) stays on the calling goroutine, so results are bit-identical
// at every worker count.
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
	if a.cfg.DACBits > 0 || a.hook != nil {
		xin = make(tensor.Vector, len(x))
		for j, v := range x {
			xin[j] = quantize(v, a.cfg.DACBits, a.cfg.InputRange)
		}
	}
	if a.hook != nil {
		a.hook.FilterInput(a, OpForward, xin)
	}
	y := par.MatVec(a.w, xin)
	a.finishRead(y)
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
// weight-row load over BatchSpan samples), then the periphery randomness
// (read noise) is drawn serially per sample in index order, exactly the
// sequence the one-by-one path draws. With a fault hook installed the batch
// degrades to sequential forwards so the hook observes the same well-formed
// op stream either way.
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
	xin := xs
	if a.cfg.DACBits > 0 {
		xin = make([]tensor.Vector, len(xs))
		for s, x := range xs {
			q := make(tensor.Vector, len(x))
			for j, v := range x {
				q[j] = quantize(v, a.cfg.DACBits, a.cfg.InputRange)
			}
			xin[s] = q
		}
	}
	par.MatVecBatchInto(a.w, xin, ys)
	for _, y := range ys {
		a.finishRead(y)
		a.Counts.Forwards++
		a.Counts.DigitalMACs += int64(a.rows) * int64(a.cols)
	}
	return ys
}

// Backward implements nn.Mat: the transposed MVM yᵀ = Wᵀ·d obtained by
// swapping the roles of rows and columns at the periphery.
func (a *Array) Backward(d tensor.Vector) tensor.Vector {
	a.acquire()
	defer a.release()
	if len(d) != a.rows {
		panic(fmt.Sprintf("crossbar: Backward expects %d inputs, got %d", a.rows, len(d)))
	}
	if a.hook != nil {
		a.hook.BeginOp(a, OpBackward)
	}
	din := d
	if a.cfg.DACBits > 0 || a.hook != nil {
		din = make(tensor.Vector, len(d))
		for i, v := range d {
			din[i] = quantize(v, a.cfg.DACBits, a.cfg.InputRange)
		}
	}
	if a.hook != nil {
		a.hook.FilterInput(a, OpBackward, din)
	}
	y := par.MatVecT(a.w, din)
	a.finishRead(y)
	if a.hook != nil {
		a.hook.FilterOutput(a, OpBackward, y)
	}
	a.Counts.Backwards++
	a.Counts.DigitalMACs += int64(a.rows) * int64(a.cols)
	return y
}

func (a *Array) finishRead(y tensor.Vector) {
	ir := a.irFactor()
	for i := range y {
		y[i] *= ir
		if a.cfg.ReadNoise > 0 {
			y[i] += a.rng.Normal(0, a.cfg.ReadNoise)
		}
		if a.cfg.ADCBits > 0 {
			y[i] = quantize(y[i], a.cfg.ADCBits, a.cfg.OutputRange)
		}
	}
}

// Update implements nn.Mat: W += scale·(u ⊗ v) in expectation, realized with
// device pulses per the configured update mode.
func (a *Array) Update(scale float64, u, v tensor.Vector) {
	a.update(scale, u, v, false)
}

// UpdateReference is Update forced onto the generic per-crosspoint path
// (device interface dispatch for every coincidence) even when a specialized
// kernel exists for the array's device model. It advances the same op
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

// reseedTileRNGs repositions the arena's per-tile pulse-noise streams for
// the current update operation. Each stream is keyed by the array's base
// seed, the update counter, and the tile index — never by execution order —
// so a tile draws the identical sequence whether tiles run on one worker or
// eight, and whether the run is fresh or resumed from a checkpoint (the
// counter is part of ArrayState; the streams themselves are re-derived per
// op, so the arena needs no serialization). The streams live in the arena
// and are reseeded in place, so no allocation happens after the first
// update.
func (a *Array) reseedTileRNGs(tiles int) {
	for t := 0; t < tiles; t++ {
		if a.arena.tileSrc[t] == nil {
			a.arena.tileSrc[t] = a.rng.Sub(uint64(a.Counts.Updates), uint64(t))
		} else {
			a.rng.SubInto(a.arena.tileSrc[t], uint64(a.Counts.Updates), uint64(t))
		}
	}
}

// runUpdateTiles executes one tiled update pass over the row tiles of the
// array. Without a fault hook the tiles run on the par worker pool (each
// tile touches a disjoint row range of devices and weight mirror, and
// draws only from its own per-tile keyed stream). With a hook installed the
// tiles run sequentially in tile order on the calling goroutine — the
// hook's per-op ordering guarantee (see FaultHook) must hold, and hooks
// keep private random streams that are not tile-keyed — which by the
// determinism contract produces the identical result. Per-tile pulse
// counts are reduced into Counts.Pulses in fixed tile order. needRNG=false
// skips the per-tile stream reseed for passes that provably draw nothing
// (the noiseless specialized kernel); fn then receives nil streams.
func (a *Array) runUpdateTiles(needRNG bool, fn func(t, lo, hi int, rng *rngutil.Source) int64) {
	tiles := par.Tiles(a.rows)
	a.ensureArena()
	if needRNG {
		a.reseedTileRNGs(tiles)
	}
	pulses := a.arena.pulses
	src := a.arena.tileSrc
	rows := a.rows
	run := par.Run
	if a.hook != nil {
		run = par.RunSeq
	}
	run(tiles, func(t int) {
		lo, hi := par.Bounds(t, rows)
		pulses[t] = fn(t, lo, hi, src[t])
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
// take the specialized kernel (updateStochasticLinear) unless a fault hook
// or UpdateReference forces the generic per-crosspoint path; the two are
// bit-identical.
func (a *Array) updateStochastic(scale float64, u, v tensor.Vector, reference bool) {
	bl := a.cfg.BL
	dw := a.model.MeanStep()
	c := math.Sqrt(math.Abs(scale) / (float64(bl) * dw))
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
	if a.lin != nil && a.hook == nil && !reference {
		a.updateStochasticLinear(sgnScale, u, v)
		return
	}
	a.syncLin() // the generic path pulses devices directly
	cols := a.cols
	a.runUpdateTiles(true, func(_, lo, hi int, rng *rngutil.Source) int64 {
		var n int64
		for i := lo; i < hi; i++ {
			rt := rowTrains[i]
			if rt == 0 {
				continue
			}
			upRow := math.Signbit(u[i]) == sgnScale // sign(u_i·scale) > 0
			base := i * cols
			for j := 0; j < cols; j++ {
				k := bits.OnesCount64(rt & colTrains[j])
				if k == 0 {
					continue
				}
				up := upRow == !math.Signbit(v[j]) // XOR with sign(v_j)
				n += a.pulseFrom(rng, base+j, k, up)
			}
		}
		return n
	})
}

// updateStochasticLinear is the specialized coincidence pass for arrays of
// noiseless linear-step devices. It exploits three structural facts: the
// per-pulse step involves no random draw and no state dependence, every
// device shares the model's step parameters (only the per-device scale
// varies), and for non-stuck devices the weight mirror IS the device weight.
// The kernel therefore runs entirely on flat arrays — trains, stuck map,
// scale, mirror — applying the same multiply/add/clip sequence as
// linearStepDevice.Pulse without ever touching a device object, and settles
// the per-device state lazily (syncLin). Because no randomness is consumed,
// the tile streams are not even reseeded (needRNG=false); results are
// bit-identical to the generic path on the same devices.
func (a *Array) updateStochasticLinear(sgnScale bool, u, v tensor.Vector) {
	rowTrains := a.arena.rowTrains
	colTrains := a.arena.colTrains
	cols := a.cols
	stuck := a.stuck
	hasStuck := a.stuckCount > 0
	scale := a.linScale
	wData := a.w.Data
	dwMin := a.linP.DwMin
	wMin, wMax := a.linP.WMin, a.linP.WMax
	// Per-column signed multipliers fold the per-hit direction logic into a
	// single multiply. A potentiating hit applies (dwMin·scale)·(1+a) and a
	// depressing hit subtracts (dwMin·scale)·(1−a); subtraction is carried by
	// the multiplier's sign, which is exact in IEEE arithmetic (x − s and
	// x + (−s) are the same operation, and a sign flip through a multiply is
	// exact), so results stay bit-identical to linearStepDevice.Pulse.
	mulUp := a.arena.colMulUp
	mulDown := a.arena.colMulDown
	up, down := 1+a.linP.Asymmetry, -(1 - a.linP.Asymmetry)
	for j, vj := range v {
		if !math.Signbit(vj) {
			mulUp[j], mulDown[j] = up, down
		} else {
			mulUp[j], mulDown[j] = down, up
		}
	}
	uniform := a.linUniform && len(scale) > 0
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
	bl := a.cfg.BL
	off := a.arena.colSlotOff
	buf := a.arena.colSlotBuf
	fillSlotBuckets(colTrains, bl, off, buf)
	a.linDirty = true
	a.runUpdateTiles(false, func(_, lo, hi int, _ *rngutil.Source) int64 {
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
	return a.rng.BernoulliMask(p, a.cfg.BL)
}

// updateExpected applies round-to-pulse updates: n_ij = |scale·u_i·v_j|/Δw
// pulses with stochastic rounding of the fractional part. The rounding
// draws and the pulse cycle noise both come from the tile's keyed stream.
func (a *Array) updateExpected(scale float64, u, v tensor.Vector) {
	a.syncLin()
	dw := a.model.MeanStep()
	a.runUpdateTiles(true, func(_, lo, hi int, rng *rngutil.Source) int64 {
		var pulses int64
		for i := lo; i < hi; i++ {
			ui := u[i]
			if ui == 0 {
				continue
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
				pulses += a.pulseFrom(rng, base+j, k, target > 0)
			}
		}
		return pulses
	})
}

// pulseFrom applies k pulses to device idx (skipping stuck devices, routing
// through the fault hook's write path), drawing cycle noise from rng, and
// refreshes the weight mirror. It returns the pulses actually issued so
// tile-parallel callers can reduce counts in deterministic order.
func (a *Array) pulseFrom(rng *rngutil.Source, idx, k int, up bool) int64 {
	if a.stuck[idx] {
		return 0
	}
	if a.hook != nil {
		k = a.hook.FilterPulses(a, idx/a.cols, idx%a.cols, k, up)
		if k <= 0 {
			return 0
		}
	}
	a.dev[idx].Pulse(k, up, rng)
	a.w.Data[idx] = a.dev[idx].Weight()
	return int64(k)
}

// pulse is the serial path (programming, single-device addressing): noise
// draws come from the array's own stream and the count lands directly on
// Counts.Pulses. It settles any lazily deferred mirror state first, since
// it pulses the device object directly.
func (a *Array) pulse(idx, k int, up bool) {
	a.syncLin()
	a.Counts.Pulses += a.pulseFrom(a.rng, idx, k, up)
}

// UpdateDeviceExact applies exactly k pulses in the given direction to
// device (i, j) — the single-device programming path used by
// mixed-precision trainers, where the digital controller addresses one
// crosspoint at a time.
func (a *Array) UpdateDeviceExact(i, j, k int, up bool) {
	a.acquire()
	defer a.release()
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("crossbar: UpdateDeviceExact index (%d,%d) out of %dx%d", i, j, a.rows, a.cols))
	}
	a.pulse(i*a.cols+j, k, up)
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
	for idx := range a.dev {
		a.pulse(idx, n, up)
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
// models it, then refreshes the weight mirror. Stuck devices do not drift:
// their conductance path is frozen, which also preserves the corrupt value
// of StuckValueStd devices (the mirror, not the pristine device state, is
// what they expose). A fault hook may rescale dt (accelerated aging).
func (a *Array) AdvanceTime(dt float64) {
	if a.hook != nil {
		dt = a.hook.FilterAdvance(a, dt)
	}
	for idx, d := range a.dev {
		if a.stuck[idx] {
			continue
		}
		if dr, ok := d.(Drifter); ok {
			dr.Drift(dt)
			a.w.Data[idx] = d.Weight()
		}
	}
}

// ResetAll invokes the refresh operation on every resettable device (e.g.
// the PCM pair's difference-preserving reset) and refreshes the mirror.
func (a *Array) ResetAll() {
	a.acquire()
	defer a.release()
	for idx, d := range a.dev {
		if a.stuck[idx] {
			continue
		}
		if r, ok := d.(Resetter); ok {
			r.Reset()
			a.w.Data[idx] = d.Weight()
		}
	}
}

// MaxSaturation reports the worst per-leg saturation across PCM pairs
// (0 for arrays of other device types); trainers reset when it nears 1.
func (a *Array) MaxSaturation() float64 {
	var worst float64
	for _, d := range a.dev {
		if p, ok := d.(*pcmPair); ok {
			if s := p.Saturation(); s > worst {
				worst = s
			}
		}
	}
	return worst
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
	for idx := range a.dev {
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
	a.syncLin() // write-verify reads the device weight directly
	dw := a.model.MeanStep()
	aim := a.clampToBounds(want)
	d := a.dev[idx]
	for p := 0; p < maxPulses; p++ {
		diff := aim - d.Weight()
		if math.Abs(diff) < dw {
			break
		}
		a.pulse(idx, 1, diff > 0)
		pulses++
	}
	a.w.Data[idx] = d.Weight()
	return pulses, math.Abs(want - d.Weight())
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
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("crossbar: ProgramDevice index (%d,%d) out of %dx%d", i, j, a.rows, a.cols))
	}
	idx := i*a.cols + j
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
	for idx := range a.dev {
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
