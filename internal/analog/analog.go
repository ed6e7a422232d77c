// Package analog implements the training algorithms that make simulated
// resistive crossbar arrays usable for neural-network training despite
// device non-idealities (§II of the paper):
//
//   - plain in-crossbar SGD (the baseline that degrades on asymmetric
//     devices),
//   - zero-shifting, which re-references each device to its symmetry point
//     (paper ref. [30]),
//   - Tiki-Taka, the coupled-dynamical-system algorithm that trains
//     indistinguishably from ideal devices even with aggressive asymmetry
//     (paper ref. [35]),
//   - mixed-precision training with a digital update accumulator
//     (paper ref. [25]), and
//   - hardware-aware drop-connect training for stuck devices
//     (paper ref. [33]).
//
// Every algorithm is packaged as an nn.Mat implementation, so the unchanged
// network code in package nn trains through them.
package analog

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Mode selects the analog training algorithm.
type Mode int

// Available training modes.
const (
	PlainSGD Mode = iota
	ZeroShift
	TikiTaka
	MixedPrecision
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case PlainSGD:
		return "plain-sgd"
	case ZeroShift:
		return "zero-shift"
	case TikiTaka:
		return "tiki-taka"
	case MixedPrecision:
		return "mixed-precision"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures an analog training session.
type Options struct {
	Model crossbar.Model
	Cfg   crossbar.Config
	Mode  Mode

	// InitScale is the half-range of the uniform random weights programmed
	// into the arrays before training (symmetry breaking).
	InitScale float64

	// SymmetrizeIters is the number of alternating up/down pulse pairs used
	// to locate device symmetry points for zero-shifting (and Tiki-Taka's A
	// array). 0 selects a sensible default.
	SymmetrizeIters int

	// Tiki-Taka hyperparameters (used when Mode == TikiTaka).
	TTGamma         float64 // mixing coefficient γ for the fast array
	TTTransferEvery int     // updates between column transfers
	TTTransferLR    float64 // learning rate of the A→C transfer
}

// DefaultOptions returns a configuration that trains the synthetic-digits
// MLP on the given device model.
func DefaultOptions(model crossbar.Model, mode Mode) Options {
	return Options{
		Model:           model,
		Cfg:             crossbar.DefaultConfig(),
		Mode:            mode,
		InitScale:       0.2,
		SymmetrizeIters: 500,
		TTGamma:         0.1,
		TTTransferEvery: 2,
		TTTransferLR:    0.1,
	}
}

// Session owns the arrays created for one training run so that time-based
// effects (drift) and maintenance (PCM reset) can be applied globally, the
// way a chip controller would.
type Session struct {
	opts   Options
	rng    *rngutil.Source
	arrays []*crossbar.Array
	hook   crossbar.FaultHook
}

// NewSession creates a training session.
func NewSession(opts Options, rng *rngutil.Source) *Session {
	if opts.SymmetrizeIters <= 0 {
		opts.SymmetrizeIters = 500
	}
	return &Session{opts: opts, rng: rng}
}

// Arrays returns all crossbar arrays created by this session's factory.
func (s *Session) Arrays() []*crossbar.Array { return s.arrays }

// AttachHook installs a fault hook (e.g. a faults.Engine) on every array the
// session has built and on every array it builds afterwards, so a fault
// campaign covers the whole training lifetime including initial programming.
func (s *Session) AttachHook(hook crossbar.FaultHook) {
	s.hook = hook
	for _, a := range s.arrays {
		a.SetFaultHook(hook)
	}
}

// AdvanceTime applies dt seconds of device drift to every array.
func (s *Session) AdvanceTime(dt float64) {
	for _, a := range s.arrays {
		a.AdvanceTime(dt)
	}
}

// MaintainPCM performs the difference-preserving reset on any array whose
// PCM legs are close to saturation (§II-B.1).
func (s *Session) MaintainPCM(threshold float64) {
	for _, a := range s.arrays {
		if a.MaxSaturation() > threshold {
			a.ResetAll()
		}
	}
}

// newArray builds, registers and randomly initializes one array.
func (s *Session) newArray(rows, cols int, label string) *crossbar.Array {
	a := crossbar.NewArray(rows, cols, s.opts.Model, s.opts.Cfg, s.rng.Child(label))
	if s.hook != nil {
		a.SetFaultHook(s.hook)
	}
	s.arrays = append(s.arrays, a)
	return a
}

// programRandomInit writes small random weights into the array (relative to
// the given reference matrix, which may be nil for absolute programming).
func (s *Session) programRandomInit(a *crossbar.Array, ref *tensor.Matrix, label string) {
	ir := s.rng.Child(label + "-init")
	target := tensor.NewMatrix(a.Rows(), a.Cols())
	for i := range target.Data {
		target.Data[i] = ir.Uniform(-s.opts.InitScale, s.opts.InitScale)
		if ref != nil {
			target.Data[i] += ref.Data[i]
		}
	}
	a.Program(target, 4000)
}

// Factory returns an nn.MatFactory that builds weight storage according to
// the session's mode. Layer construction order is deterministic, so a fixed
// session seed reproduces an identical network.
func (s *Session) Factory() nn.MatFactory {
	idx := 0
	return func(rows, cols int) nn.Mat {
		idx++
		label := fmt.Sprintf("layer%d-%dx%d", idx, rows, cols)
		switch s.opts.Mode {
		case PlainSGD:
			a := s.newArray(rows, cols, label)
			s.programRandomInit(a, nil, label)
			return a
		case ZeroShift:
			return s.newZeroShifted(rows, cols, label)
		case TikiTaka:
			return s.newTikiTaka(rows, cols, label)
		case MixedPrecision:
			a := s.newArray(rows, cols, label)
			s.programRandomInit(a, nil, label)
			return newMixedPrecision(a, s.opts.Model.MeanStep(), s.rng.Child(label+"-mp"))
		}
		panic("analog: unknown mode")
	}
}
