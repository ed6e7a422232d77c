package crossbar

import "repro/internal/tensor"

// OpKind identifies the array operation a fault hook is intercepting.
type OpKind int

// The three array cycles of Fig. 1, as seen by a FaultHook.
const (
	OpForward OpKind = iota
	OpBackward
	OpUpdate
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpForward:
		return "forward"
	case OpBackward:
		return "backward"
	case OpUpdate:
		return "update"
	}
	return "op?"
}

// FaultHook intercepts array operations so that run-time fault processes —
// devices that fail mid-training, line opens, transient read upsets,
// dropped write pulses — can be injected over an array's lifetime rather
// than only at construction (§II-B.2; Rasch et al. argue non-idealities
// must act *during* simulation). Package faults provides the campaign
// engine implementation.
//
// Hooks see a private copy of the input vector before the MVM and the
// output vector after it, i.e. at the array periphery where the physical
// fault mechanisms live.
//
// Ordering guarantee: within one array operation the hook is called in a
// fixed sequence — for reads, BeginOp then FilterInput then FilterOutput;
// for updates, BeginOp then zero or more FilterPulses — with no
// interleaving from other operations on the same array, because Array is
// single-writer.
// A hook shared by arrays driven from different goroutines must synchronize
// its own internal state; the per-array call sequence remains well-formed
// either way. See TestFaultHookOrdering.
type FaultHook interface {
	// BeginOp is called once at the start of every Forward/Backward/Update;
	// it is the lifetime clock progressive fault processes tick on.
	BeginOp(a *Array, op OpKind)
	// FilterInput may mutate the input vector in place (e.g. zero the
	// entries of open column lines on a forward pass). The slice is a
	// private copy; mutating it never aliases caller data.
	FilterInput(a *Array, op OpKind, x tensor.Vector)
	// FilterOutput may mutate the output vector in place (read upsets,
	// open row lines).
	FilterOutput(a *Array, op OpKind, y tensor.Vector)
	// FilterPulses reports how many of the k pulses requested for device
	// (row, col) actually land; returning 0 drops the write entirely
	// (write failure). Called for update, programming and maintenance
	// pulses alike — a failing write path affects them all.
	//
	// FilterPulses must not change the array's devices (no Freeze,
	// FreezeAt or pulses of its own), and must not count on reading them:
	// write-verify programming holds the device's state in locals across
	// the call, and writes it, with Counts.Pulses, back when the device's
	// loop ends.
	FilterPulses(a *Array, row, col, k int, up bool) int
}

// SetFaultHook installs (or, with nil, removes) the array's fault hook. A
// hooked array does not use the read memo, and the swap drops it, so no
// read stored on either side of it can answer a later one.
func (a *Array) SetFaultHook(h FaultHook) {
	a.hook = h
	a.memo.drop()
}

// FaultHook returns the installed hook (nil if none).
func (a *Array) FaultHook() FaultHook { return a.hook }

// Freeze marks device (i, j) stuck at its current weight — the run-time
// "device fails mid-life" event of progressive fault campaigns. Frozen
// devices ignore all subsequent pulses but keep contributing their last
// weight to MVMs.
func (a *Array) Freeze(i, j int) {
	a.markStuck(a.index("Freeze", i, j))
}

// FreezeAt freezes device (i, j) at weight w (clipped to the model bounds)
// — the corrupt-device failure mode, where the post-failure conductance is
// unrelated to the stored weight.
func (a *Array) FreezeAt(i, j int, w float64) {
	idx := a.index("FreezeAt", i, j)
	lo, hi := a.model.WeightBounds()
	if w < lo {
		w = lo
	} else if w > hi {
		w = hi
	}
	a.markStuck(idx)
	a.cells.freezeAt(idx, w)
}

// markStuck drops the read memo too: these run outside the periphery
// guard, and FreezeAt changes the weight a read sees.
func (a *Array) markStuck(idx int) {
	a.memo.drop()
	if !a.stuck[idx] {
		a.stuck[idx] = true
		a.stuckCount++
	}
}

// IsStuck reports whether device (i, j) is non-yielding (from fabrication
// or a run-time failure).
func (a *Array) IsStuck(i, j int) bool { return a.stuck[a.index("IsStuck", i, j)] }

// DeviceWeight returns the effective weight of device (i, j) as seen by
// MVMs (for stuck corrupt devices this is the frozen value, not the
// underlying device state).
func (a *Array) DeviceWeight(i, j int) float64 { return a.w.Data[a.index("DeviceWeight", i, j)] }
