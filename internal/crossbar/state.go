package crossbar

import (
	"fmt"
	"math"

	"repro/internal/rngutil"
)

// DeviceState is the complete internal state of one crosspoint device in
// plain serializable data: the technology kind plus kind-specific scalars
// (for a PCM pair that is both legs G⁺ and G⁻ and the per-device increment
// scale, not merely the effective weight — restoring the weight alone would
// lose programming headroom and drift position). It is the checkpoint
// format; cells.state lists the F layout of each kind.
type DeviceState struct {
	Kind string
	F    []float64 // kind-specific floating-point state
	N    []int64   // kind-specific counters (e.g. FeFET endurance consumed)
}

// ArrayState is the complete serializable state of an Array: every device's
// internal state, the stuck map, the effective-weight mirror (which carries
// the frozen values of corrupt stuck devices — they are not recoverable
// from device state), the array's private random stream position, and the
// operation counters. Round-tripping through Export/Import is exact: a
// restored array continues bit-identically with the original.
type ArrayState struct {
	Rows, Cols int
	Model      string
	Devices    []DeviceState
	Stuck      []bool
	Mirror     []float64
	RNG        rngutil.State
	Counts     OpCounts
}

// ExportState captures the array's full state, noise-free — unlike Forward
// it reads device state directly rather than through the periphery, the way
// a chip controller addresses raw conductances for checkpointing.
//
// It takes the single-writer busy guard like every other array operation,
// so a snapshot can never observe a torn write: callers serialize it with
// reads the same way (see internal/serve.Replica, and the -race test
// TestSnapshotDuringForwardReads).
func (a *Array) ExportState() ArrayState {
	a.acquire()
	defer a.release()
	n := len(a.stuck)
	st := ArrayState{
		Rows:    a.rows,
		Cols:    a.cols,
		Model:   a.model.Name(),
		Devices: make([]DeviceState, n),
		Stuck:   append([]bool(nil), a.stuck...),
		Mirror:  append([]float64(nil), a.w.Data...),
		RNG:     a.rng.State(),
		Counts:  a.Counts,
	}
	nf := len(a.cells.state)
	fs := make([]float64, n*nf)
	for i := range st.Devices {
		d := DeviceState{Kind: a.cells.kind, F: fs[i*nf : (i+1)*nf : (i+1)*nf]}
		if a.cells.wear != nil {
			d.N = []int64{a.cells.wear[i]}
		}
		for k, plane := range a.cells.state {
			d.F[k] = plane[i]
		}
		if v, ok := a.cells.frozen[i]; ok {
			d.F[0] = v
		}
		st.Devices[i] = d
	}
	return st
}

// ImportState restores a previously exported state onto this array. The
// array must have been built with the same shape and device model, and each
// yielding device's mirror weight must be the weight its device state
// encodes; the import is rejected, with no partial mutation, otherwise.
func (a *Array) ImportState(st ArrayState) error {
	a.acquire()
	defer a.release()
	if st.Rows != a.rows || st.Cols != a.cols {
		return fmt.Errorf("crossbar: state is %dx%d, array is %dx%d",
			st.Rows, st.Cols, a.rows, a.cols)
	}
	if st.Model != a.model.Name() {
		return fmt.Errorf("crossbar: state from model %q, array is %q", st.Model, a.model.Name())
	}
	n := len(a.stuck)
	if len(st.Devices) != n || len(st.Stuck) != n || len(st.Mirror) != n {
		return fmt.Errorf("crossbar: state arrays have %d/%d/%d entries, want %d",
			len(st.Devices), len(st.Stuck), len(st.Mirror), n)
	}
	// Validate every device state before mutating any, so a corrupt state
	// cannot leave the array half-imported.
	for i, d := range st.Devices {
		if err := a.cells.checkCell(d, st.Mirror[i], st.Stuck[i]); err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
	}
	a.cells.frozen = nil
	for i, d := range st.Devices {
		a.cells.importCell(i, d, st.Mirror[i])
	}
	a.cells.refreshUniform()
	copy(a.stuck, st.Stuck)
	a.stuckCount = 0
	for _, s := range a.stuck {
		if s {
			a.stuckCount++
		}
	}
	a.rng = rngutil.FromState(st.RNG)
	a.Counts = st.Counts
	return nil
}

// checkCell validates one cell's DeviceState against the store's kind and
// layout and, for a cell that is not stuck, against the weight the array
// shows for it: an exported state always has the two agree bitwise.
func (c *cells) checkCell(st DeviceState, mirror float64, stuck bool) error {
	nn := 0
	if c.wear != nil {
		nn = 1
	}
	if st.Kind != c.kind {
		return fmt.Errorf("crossbar: device state kind %q, want %q", st.Kind, c.kind)
	}
	if len(st.F) != len(c.state) || len(st.N) != nn {
		return fmt.Errorf("crossbar: %s state shape %d/%d, want %d/%d",
			c.kind, len(st.F), len(st.N), len(c.state), nn)
	}
	w := st.F[0]
	if c.law == lawPCM {
		w = st.F[0] - st.F[1]
	}
	if !stuck && math.Float64bits(w) != math.Float64bits(mirror) {
		return fmt.Errorf("crossbar: mirror weight %v disagrees with %s state weight %v",
			mirror, c.kind, w)
	}
	return nil
}

// importCell restores cell i from a state checkCell accepted; mirror is the
// weight the array shows for it.
func (c *cells) importCell(i int, st DeviceState, mirror float64) {
	for k, plane := range c.state {
		plane[i] = st.F[k]
	}
	if c.wear != nil {
		c.wear[i] = st.N[0]
	}
	c.w[i] = mirror
	if c.law != lawPCM && math.Float64bits(st.F[0]) != math.Float64bits(mirror) {
		c.keepOwn(i, st.F[0])
	}
}
