// Package faults is the fault-injection and resilience subsystem of the
// repository (§II-B.2 of the paper: imperfect yield, drift, and asymmetric
// updates drive accuracy loss on analog crossbars). It provides
//
//   - a deterministic, seeded fault *campaign engine* (Engine) that injects
//     faults over an array's lifetime — progressive stuck-at failures,
//     drift bursts, row/column line opens, transient read upsets, and
//     write failures — through the crossbar.FaultHook run-time interface
//     (Rasch et al.: non-idealities must act during simulation, not only
//     at initialization);
//
//   - *remediation machinery*: checksum-probe fault detection (Detect),
//     redundant-column remapping that relocates weights off detected-dead
//     crosspoints (RemappedArray), and — together with
//     crossbar.ProgramVerify — closed-loop write-verify with bounded
//     retry and exponential pulse-budget backoff (Kazemi et al.:
//     detection plus remapping recovers most fault-induced loss);
//
//   - graceful-degradation sweeps (AnalogSweep, XMannSweep, TCAMSweep)
//     that measure accuracy and remediation cost as fault rate rises, for
//     the analog-training, X-MANN differentiable-memory, and TCAM
//     few-shot pipelines. cmd/fault-campaign and experiment R1 drive
//     them.
//
// Everything is seeded: the same Plan and seed reproduce the same fault
// history bit-for-bit.
package faults

import (
	"repro/internal/crossbar"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Plan parameterizes the fault processes of a campaign. All rates are per
// array operation (one Forward, Backward, or Update — the lifetime clock
// of the array) or per element, as noted. The zero Plan injects nothing.
type Plan struct {
	// StuckPerOp is the expected number of new stuck-at device failures
	// per array op (progressive yield loss: devices fail mid-training).
	StuckPerOp float64
	// StuckValueStd: new failures freeze at a random weight drawn from
	// N(0, StuckValueStd) — the corrupt-device model; 0 freezes devices
	// at their current weight.
	StuckValueStd float64
	// ReadUpset is the per-output-element probability of a transient
	// upset on each read; upset elements get N(0, UpsetMag) added.
	ReadUpset float64
	UpsetMag  float64
	// WriteFail is the probability that a device's pulse train is dropped
	// entirely (write failure); the write-verify loop observes no change
	// and retries, consuming budget.
	WriteFail float64
	// LineOpenPerOp is the probability per op that one additional row or
	// column line opens (interconnect break): an open row reads zero and
	// accepts no updates; an open column passes no input.
	LineOpenPerOp float64
	// DriftBurstEvery > 0 applies a DriftBurstDt-second drift burst every
	// that many ops (temperature excursions, retention events).
	DriftBurstEvery int
	DriftBurstDt    float64
}

// Stats counts the fault events a campaign has injected so far.
type Stats struct {
	Ops            int64 // array operations observed
	StuckInjected  int64 // progressive device failures
	LineOpens      int64 // row/column opens
	Upsets         int64 // transient read upsets
	DroppedWrites  int64 // pulse trains lost to write failures
	DriftBursts    int64
	MaskedReads    int64 // output elements zeroed by open lines
	BlockedUpdates int64 // pulse trains blocked by open lines
}

// arrayState is the per-array campaign state (which lines have opened).
type arrayState struct {
	openRows map[int]bool
	openCols map[int]bool
}

// Engine is a seeded fault campaign bound to one or more arrays via
// crossbar.SetFaultHook. One engine may drive several arrays (a session's
// layers); the fault history is deterministic in (Plan, seed, call order).
//
// An Engine is not safe for concurrent use: it shares one random stream and
// one state map across its arrays. Arrays served from different goroutines
// (replicas in internal/serve) must each get their own engine — Clone
// hands out identical-schedule engines for exactly that purpose.
type Engine struct {
	plan  Plan
	seed  uint64 // derived stream seed, kept so Clone/Reset can rewind it
	rng   *rngutil.Source
	stats Stats
	state map[*crossbar.Array]*arrayState
	order []*crossbar.Array // attach order, for positional state export
}

// NewEngine builds a campaign engine for plan, seeded by rng.
func NewEngine(plan Plan, rng *rngutil.Source) *Engine {
	r := rng.Child("campaign")
	return &Engine{plan: plan, seed: r.Seed(), rng: r, state: map[*crossbar.Array]*arrayState{}}
}

// Clone returns a fresh engine with the same plan and the same random
// stream rewound to the start: driven through an identical op sequence, the
// clone injects a bit-identical fault history. Policy sweeps use it to
// replay one campaign schedule across arms (and to give each concurrently
// served replica its own engine) without rebuilding the campaign by hand.
// The clone tracks no arrays until attached.
func (e *Engine) Clone() *Engine {
	return &Engine{plan: e.plan, seed: e.seed, rng: rngutil.New(e.seed), state: map[*crossbar.Array]*arrayState{}}
}

// Reset rewinds the engine to its initial state: zeroed stats, forgotten
// line-open state, and the random stream rewound to the start, so the same
// schedule replays without drift in the random stream. Faults already
// frozen into attached arrays are not undone — rebuild the arrays (the
// sweep arms do) to replay a campaign from scratch.
func (e *Engine) Reset() {
	e.rng = rngutil.New(e.seed)
	e.stats = Stats{}
	e.state = map[*crossbar.Array]*arrayState{}
	e.order = nil
}

// Attach installs the engine as a's fault hook and begins tracking it.
func (e *Engine) Attach(a *crossbar.Array) {
	e.stateOf(a)
	a.SetFaultHook(e)
}

// Stats returns a snapshot of the injected-fault counters.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) stateOf(a *crossbar.Array) *arrayState {
	s, ok := e.state[a]
	if !ok {
		s = &arrayState{openRows: map[int]bool{}, openCols: map[int]bool{}}
		e.state[a] = s
		e.order = append(e.order, a)
	}
	return s
}

// BeginOp implements crossbar.FaultHook: the lifetime clock. Progressive
// stuck-at failures, line opens, and drift bursts land here.
func (e *Engine) BeginOp(a *crossbar.Array, op crossbar.OpKind) {
	e.stats.Ops++
	// Progressive stuck-at: expected StuckPerOp failures this op.
	for p := e.plan.StuckPerOp; p > 0; p-- {
		if p < 1 && !e.rng.Bernoulli(p) {
			break
		}
		e.freezeRandom(a)
	}
	if e.plan.LineOpenPerOp > 0 && e.rng.Bernoulli(e.plan.LineOpenPerOp) {
		e.openRandomLine(a)
	}
	if e.plan.DriftBurstEvery > 0 && e.stats.Ops%int64(e.plan.DriftBurstEvery) == 0 {
		e.stats.DriftBursts++
		a.AdvanceTime(e.plan.DriftBurstDt)
	}
}

// freezeRandom sticks one currently yielding device; with a full array it
// gives up after a bounded number of draws (keeping rng consumption
// finite and deterministic).
func (e *Engine) freezeRandom(a *crossbar.Array) {
	rows, cols := a.Rows(), a.Cols()
	for try := 0; try < 64; try++ {
		i, j := e.rng.Intn(rows), e.rng.Intn(cols)
		if a.IsStuck(i, j) {
			continue
		}
		if e.plan.StuckValueStd > 0 {
			a.FreezeAt(i, j, e.rng.Normal(0, e.plan.StuckValueStd))
		} else {
			a.Freeze(i, j)
		}
		e.stats.StuckInjected++
		return
	}
}

func (e *Engine) openRandomLine(a *crossbar.Array) {
	s := e.stateOf(a)
	n := e.rng.Intn(a.Rows() + a.Cols())
	if n < a.Rows() {
		s.openRows[n] = true
	} else {
		s.openCols[n-a.Rows()] = true
	}
	e.stats.LineOpens++
}

// FilterInput implements crossbar.FaultHook: open input lines pass nothing.
// On a forward pass inputs ride the columns; on a backward pass, the rows.
func (e *Engine) FilterInput(a *crossbar.Array, op crossbar.OpKind, x tensor.Vector) {
	s := e.stateOf(a)
	switch op {
	case crossbar.OpForward:
		for j := range x {
			if s.openCols[j] {
				x[j] = 0
			}
		}
	case crossbar.OpBackward:
		for i := range x {
			if s.openRows[i] {
				x[i] = 0
			}
		}
	}
}

// FilterOutput implements crossbar.FaultHook: open output lines read zero,
// and transient upsets perturb surviving outputs.
func (e *Engine) FilterOutput(a *crossbar.Array, op crossbar.OpKind, y tensor.Vector) {
	s := e.stateOf(a)
	for i := range y {
		open := false
		switch op {
		case crossbar.OpForward:
			open = s.openRows[i]
		case crossbar.OpBackward:
			open = s.openCols[i]
		}
		if open {
			y[i] = 0
			e.stats.MaskedReads++
			continue
		}
		if e.plan.ReadUpset > 0 && e.rng.Bernoulli(e.plan.ReadUpset) {
			y[i] += e.rng.Normal(0, e.plan.UpsetMag)
			e.stats.Upsets++
		}
	}
}

// FilterPulses implements crossbar.FaultHook: open lines block the write
// path, and write failures drop whole pulse trains.
func (e *Engine) FilterPulses(a *crossbar.Array, row, col, k int, up bool) int {
	s := e.stateOf(a)
	if s.openRows[row] || s.openCols[col] {
		e.stats.BlockedUpdates++
		return 0
	}
	if e.plan.WriteFail > 0 && e.rng.Bernoulli(e.plan.WriteFail) {
		e.stats.DroppedWrites++
		return 0
	}
	return k
}

var _ crossbar.FaultHook = (*Engine)(nil)
