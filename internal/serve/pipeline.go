package serve

import (
	"fmt"
	"math"

	"repro/internal/crossbar"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Pipeline is one replica's inference hardware: a replicated tile group
// holding a copy of the served model's golden weights, plus the
// maintenance operations the self-healing runtime needs. Implementations
// are NOT safe for concurrent use — the owning Replica serializes access
// (the crossbar single-writer contract).
type Pipeline interface {
	// Infer runs one inference. With verify set it reads twice (temporal
	// redundancy) and reports ok=false when the two reads diverge — the
	// signature of a transient upset rather than a persistent fault.
	Infer(x tensor.Vector, verify bool) (y tensor.Vector, ok bool)
	// CanaryDivergence replays the golden canary vectors and returns the
	// fraction whose outputs diverged from the known digital references.
	CanaryDivergence() float64
	// Recalibrate re-programs the replica from its golden weights
	// (write-verify retry, plus detect/remap where spares exist) and
	// reports the cost.
	Recalibrate() RecalStats
}

// BatchPipeline is the optional batched-read extension of Pipeline: one
// call serves a whole coalesced block of inferences with per-sample verify
// verdicts, equivalent to calling Infer on each input in order but paying
// the periphery/dispatch cost once. Implementations get the same
// serialization guarantee as Infer (the owning Replica holds its lock for
// the whole block).
type BatchPipeline interface {
	Pipeline
	// InferBatch runs one inference per input, returning per-sample outputs
	// and verify verdicts.
	InferBatch(xs []tensor.Vector, verify bool) (ys []tensor.Vector, oks []bool)
}

// RecalStats is the cost of one background recalibration pass.
type RecalStats struct {
	// Pulses is the total write pulses issued re-programming the tiles.
	Pulses int
	// DetectReads is the array reads consumed by checksum-probe detection.
	DetectReads int
	// Remapped is the number of logical columns relocated onto spares.
	Remapped int
	// Residual is the mean post-recalibration programming residual.
	Residual float64
}

// relL2 is the relative L2 distance ‖got−want‖/‖want‖ (0 when want = 0).
func relL2(got, want tensor.Vector) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// MLPPipelineConfig parameterizes one analog MLP replica.
type MLPPipelineConfig struct {
	// Model is the device technology (e.g. crossbar.PCM() for the drift
	// study); Array the periphery configuration.
	Model crossbar.Model
	Array crossbar.Config
	// Prog is the write-verify policy for programming and recalibration.
	Prog crossbar.ProgramPolicy
	// SpareCols gives each layer max(2, cols*SpareCols) redundant columns
	// for remapping; 0 keeps the default 1/4.
	SpareCols float64
	// VerifyTol is the relative-L2 divergence between the two reads of a
	// verify pair above which the result is flagged transient.
	VerifyTol float64
	// CanaryTol is the relative-L2 divergence of a canary output against
	// its digital reference above which the canary counts as diverged
	// (top-1 disagreement always counts).
	CanaryTol float64
	// Repair enables checksum-probe detection + column remapping during
	// recalibration.
	Repair bool
}

// DefaultMLPPipelineConfig returns the R2 replica configuration.
func DefaultMLPPipelineConfig() MLPPipelineConfig {
	return MLPPipelineConfig{
		Model:     crossbar.PCM(),
		Array:     crossbar.DefaultConfig(),
		Prog:      crossbar.ProgramPolicy{MaxPulses: 800, MaxRetries: 2},
		SpareCols: 0.25,
		VerifyTol: 0.05,
		CanaryTol: 0.25,
		Repair:    true,
	}
}

// MLPPipeline is an analog replica of a digitally trained MLP: every layer
// lives on a faults.RemappedArray (spare columns for remapping) programmed
// from the golden weights with write-verify retry.
type MLPPipeline struct {
	cfg     MLPPipelineConfig
	net     *nn.MLP
	arrays  []*faults.RemappedArray
	golden  []*tensor.Matrix // per-layer golden weight targets
	canaryX []tensor.Vector
	canaryY []tensor.Vector // digital reference outputs
}

// NewMLPPipeline programs one replica of golden onto fresh arrays. attach,
// if non-nil, receives each physical array before programming — the hook
// point fault campaigns use. The canary vectors' digital reference outputs
// are captured from golden before any analog hardware touches them.
func NewMLPPipeline(golden *nn.MLP, canaryX []tensor.Vector, cfg MLPPipelineConfig, attach func(*crossbar.Array), rng *rngutil.Source) *MLPPipeline {
	p, _ := newMLPPipeline(golden, canaryX, cfg, attach, rng, func(li int, arr *faults.RemappedArray, src *tensor.Matrix) error {
		arr.Program(src, cfg.Prog)
		return nil
	})
	return p
}

// ExportArrayStates snapshots the physical device state of every layer
// array (spare columns included), noise-free, in layer order. Taken right
// after programming — before any Repair has remapped columns — it captures
// everything a twin replica needs to serve identically.
func (p *MLPPipeline) ExportArrayStates() []crossbar.ArrayState {
	states := make([]crossbar.ArrayState, len(p.arrays))
	for i, arr := range p.arrays {
		states[i] = arr.Arr.ExportState()
	}
	return states
}

// NewMLPPipelineFromState builds a replica from a post-programming snapshot
// instead of re-programming the golden weights by pulses: the arrays are
// constructed to shape and their device state imported directly. Campaign
// arms use it so every policy faces the same programmed hardware without
// paying (or re-randomizing) thousands of write pulses per arm. The
// snapshot must come from ExportArrayStates taken before any column
// remapping (the fresh remap table is identity).
func NewMLPPipelineFromState(golden *nn.MLP, canaryX []tensor.Vector, cfg MLPPipelineConfig, states []crossbar.ArrayState, attach func(*crossbar.Array), rng *rngutil.Source) (*MLPPipeline, error) {
	if len(states) != len(golden.Layers) {
		return nil, fmt.Errorf("serve: snapshot has %d arrays, network has %d layers", len(states), len(golden.Layers))
	}
	return newMLPPipeline(golden, canaryX, cfg, attach, rng, func(li int, arr *faults.RemappedArray, _ *tensor.Matrix) error {
		if err := arr.Arr.ImportState(states[li]); err != nil {
			return fmt.Errorf("serve: layer %d: %w", li, err)
		}
		return nil
	})
}

// newMLPPipeline builds the arrays of a replica of golden and hands each
// one, with its golden weights, to load.
func newMLPPipeline(golden *nn.MLP, canaryX []tensor.Vector, cfg MLPPipelineConfig, attach func(*crossbar.Array), rng *rngutil.Source,
	load func(li int, arr *faults.RemappedArray, src *tensor.Matrix) error) (*MLPPipeline, error) {
	if cfg.SpareCols <= 0 {
		cfg.SpareCols = 0.25
	}
	p := &MLPPipeline{cfg: cfg, net: &nn.MLP{}}
	for _, x := range canaryX {
		p.canaryX = append(p.canaryX, x.Clone())
		p.canaryY = append(p.canaryY, golden.Forward(x).Clone())
	}
	for li, l := range golden.Layers {
		src := l.W.(*nn.DenseMat).M.Clone()
		spares := tensor.MaxInt(2, int(float64(l.W.Cols())*cfg.SpareCols))
		arr := faults.NewRemappedArray(l.W.Rows(), l.W.Cols(), spares, cfg.Model, cfg.Array,
			rng.Child(fmt.Sprintf("layer%d", li)))
		if attach != nil {
			attach(arr.Arr)
		}
		if err := load(li, arr, src); err != nil {
			return nil, err
		}
		p.arrays = append(p.arrays, arr)
		p.golden = append(p.golden, src)
		p.net.Layers = append(p.net.Layers, &nn.DenseLayer{
			In: l.In, Out: l.Out, Bias: l.Bias, Act: l.Act, W: arr,
		})
	}
	return p, nil
}

// Infer implements Pipeline.
func (p *MLPPipeline) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) {
	y := p.net.Forward(x).Clone()
	if !verify {
		return y, true
	}
	y2 := p.net.Forward(x).Clone()
	return y2, relL2(y, y2) <= p.cfg.VerifyTol
}

// InferBatch implements BatchPipeline: the block's MVMs execute as
// sample-blocked tile grids (nn.MLP.ForwardBatch → par.MatVecBatchInto),
// one grid per layer for the whole block instead of one per request, with
// Infer's verify discipline kept per sample: under verify the block is
// read twice and each sample's pair is compared individually, so a
// transient upset flags only the members it touched.
func (p *MLPPipeline) InferBatch(xs []tensor.Vector, verify bool) ([]tensor.Vector, []bool) {
	oks := make([]bool, len(xs))
	ys := p.net.ForwardBatch(xs)
	if !verify {
		for i := range oks {
			oks[i] = true
		}
		return ys, oks
	}
	ys2 := p.net.ForwardBatch(xs)
	for i := range xs {
		oks[i] = relL2(ys[i], ys2[i]) <= p.cfg.VerifyTol
	}
	return ys2, oks
}

// CanaryDivergence implements Pipeline. The canary replay runs through the
// batched MVM path — all canaries execute as one tile grid per layer —
// which is bit-identical to replaying them one at a time.
func (p *MLPPipeline) CanaryDivergence() float64 {
	if len(p.canaryX) == 0 {
		return 0
	}
	diverged := 0
	for i, y := range p.net.ForwardBatch(p.canaryX) {
		if y.ArgMax() != p.canaryY[i].ArgMax() || relL2(y, p.canaryY[i]) > p.cfg.CanaryTol {
			diverged++
		}
	}
	return float64(diverged) / float64(len(p.canaryX))
}

// Recalibrate implements Pipeline: write-verify the golden weights back
// into every layer, remap freshly dead columns onto spares (when enabled),
// and give relocated columns the same write-verify service. PCM legs that
// saturated across repeated recalibrations get the difference-preserving
// RESET first, restoring programming headroom (§II-B.1).
func (p *MLPPipeline) Recalibrate() RecalStats {
	var st RecalStats
	for li, arr := range p.arrays {
		if arr.Arr.MaxSaturation() > 0.85 {
			arr.Arr.ResetAll()
		}
		rep := arr.Program(p.golden[li], p.cfg.Prog)
		st.Pulses += rep.Pulses
		if p.cfg.Repair {
			fix := arr.Repair(p.golden[li], 0, p.cfg.Prog.MaxPulses)
			rep2 := arr.Program(p.golden[li], p.cfg.Prog)
			st.Pulses += fix.Pulses + rep2.Pulses
			st.DetectReads += fix.Diagnosis.Reads
			st.Remapped += fix.Remapped
		}
		st.Residual += arr.Residual(p.golden[li]) / float64(len(p.arrays))
	}
	return st
}

var _ BatchPipeline = (*MLPPipeline)(nil)
