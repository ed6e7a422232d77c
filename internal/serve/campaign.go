package serve

import (
	"fmt"
	"io"

	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rngutil"
	"repro/internal/tensor"
	"repro/internal/xmann"
)

// CampaignConfig parameterizes experiment R2: open-loop Poisson load
// against a replicated analog pipeline under progressive fault injection,
// compared across serving policies. Bit-reproducible in (config, Seed).
type CampaignConfig struct {
	Seed  uint64
	Quick bool
	// Replicas is the tile-group pool size.
	Replicas int
	// Levels are the fault-intensity multipliers swept (0 = fault-free).
	Levels []float64
	// Duration (virtual seconds) and Rate (requests/s) shape the load.
	Duration float64
	Rate     float64
	Lat      LatencyModel
	// Policies are the arms; every arm faces a cloned fault schedule and
	// the same arrival/latency draws (common random numbers).
	Policies []Policy
	// Obs and Tracer, when non-nil, are threaded into every arm's SimConfig;
	// both are fed from virtual time only, keeping dumps deterministic.
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// DefaultCampaignConfig returns the R2 configuration.
func DefaultCampaignConfig(seed uint64, quick bool) CampaignConfig {
	c := CampaignConfig{
		Seed:     seed,
		Quick:    quick,
		Replicas: 3,
		Levels:   []float64{0, 0.5, 1, 2},
		Duration: 3.0,
		Rate:     600,
		Lat:      DefaultLatencyModel(),
		Policies: []Policy{PolicyNone(), PolicyRetry(), PolicyFull()},
	}
	if quick {
		c.Levels = []float64{0, 1, 2}
		c.Duration = 1.0
		c.Rate = 300
	}
	return c
}

// WithBatch returns a copy of cfg with dynamic request batching enabled on
// every policy arm: each dispatch coalesces up to max queued requests into
// one batched read. max <= 1 returns cfg unchanged (the unbatched
// campaign, bit for bit).
func (cfg CampaignConfig) WithBatch(max int) CampaignConfig {
	if max <= 1 {
		return cfg
	}
	pols := make([]Policy, len(cfg.Policies))
	for i, p := range cfg.Policies {
		p.BatchMax = max
		pols[i] = p
	}
	cfg.Policies = pols
	return cfg
}

// planAt scales the R2 fault processes by the level multiplier for a
// typical replica. The mix is chosen so every remediation layer has work:
// read upsets feed the verify-retry path, mild progressive stuck-at and
// drift bursts feed the canary/recalibration loop, write failures tax
// recalibration itself.
func planAt(level float64) faults.Plan {
	if level <= 0 {
		return faults.Plan{}
	}
	return faults.Plan{
		StuckPerOp:      0.004 * level,
		StuckValueStd:   0.6,
		ReadUpset:       0.004 * level,
		UpsetMag:        1.8,
		WriteFail:       0.04 * level,
		LineOpenPerOp:   0.0003 * level,
		DriftBurstEvery: 150,
		DriftBurstDt:    6 * level,
	}
}

// lemonPlanAt is the fault corner of the pool's worst tile group: the same
// transient environment as planAt but an order of magnitude more
// progressive stuck-at damage and line opens. Real deployments see exactly
// this process spread across tile groups; the serving question R2 asks is
// whether the runtime notices the lemon and routes around it, or keeps
// handing it a third of the traffic.
func lemonPlanAt(level float64) faults.Plan {
	p := planAt(level)
	if level <= 0 {
		return p
	}
	p.StuckPerOp = 0.08 * level
	p.StuckValueStd = 0.8
	p.LineOpenPerOp = 0.012 * level
	return p
}

// campaignEngines derives one base fault engine per replica for a level;
// replica 0 is the lemon. Arms clone them, so every arm's replica i
// replays the identical fault schedule.
func campaignEngines(cfg CampaignConfig, levelIdx int, level float64) []*faults.Engine {
	var bases []*faults.Engine
	for r := 0; r < cfg.Replicas; r++ {
		plan := planAt(level)
		if r == 0 {
			plan = lemonPlanAt(level)
		}
		bases = append(bases, faults.NewEngine(plan,
			rngutil.New(cfg.Seed+7919*uint64(levelIdx+1)+31*uint64(r))))
	}
	return bases
}

// MLPCampaign runs R2 against the analog digits MLP: a digitally trained
// golden network served from PCM-device replica pipelines.
func MLPCampaign(cfg CampaignConfig) []ArmResult {
	rng := rngutil.New(cfg.Seed)
	dcfg := dataset.DigitsConfig{Classes: 6, Dim: 16, PerClass: 80, Noise: 0.5, Separation: 1}
	ds := dataset.Digits(dcfg, rng.Child("data"))
	train, test := ds.Split(0.75)

	golden := nn.NewMLP([]int{dcfg.Dim, 12, dcfg.Classes}, nn.TanhAct, nn.SoftmaxAct,
		nn.DenseFactory(rng.Child("weights")))
	for epoch := 0; epoch < 8; epoch++ {
		for i := range train.X {
			golden.TrainStep(train.X[i], train.Y[i], 0.05)
		}
	}

	var reqs []SimRequest
	for i := range test.X {
		reqs = append(reqs, SimRequest{X: test.X[i], Want: test.Y[i]})
	}
	canaryX := train.X[:8]
	fallback := func(x tensor.Vector) tensor.Vector { return golden.Forward(x).Clone() }
	pcfg := DefaultMLPPipelineConfig()

	var results []ArmResult
	for li, level := range cfg.Levels {
		bases := campaignEngines(cfg, li, level)
		// Program each replica's tiles once per level under its fault engine
		// and snapshot the post-programming device + engine state; every
		// policy arm then imports the snapshot instead of re-programming by
		// pulses, so all arms face bit-identical programmed hardware with
		// their fault schedules resumed from the same stream position.
		type snapshot struct {
			arrays []crossbar.ArrayState
			engine []byte
		}
		snaps := make([]snapshot, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			eng := bases[r].Clone()
			pipe := NewMLPPipeline(golden, canaryX, pcfg, eng.Attach,
				rngutil.New(cfg.Seed+101*uint64(r)+13))
			blob, err := eng.ExportState()
			if err != nil {
				panic(err)
			}
			snaps[r] = snapshot{arrays: pipe.ExportArrayStates(), engine: blob}
		}
		for _, pol := range cfg.Policies {
			var reps []*Replica
			for r := 0; r < cfg.Replicas; r++ {
				eng := bases[r].Clone()
				pipe, err := NewMLPPipelineFromState(golden, canaryX, pcfg, snaps[r].arrays,
					eng.Attach, rngutil.New(cfg.Seed+101*uint64(r)+13))
				if err != nil {
					panic(err)
				}
				if err := eng.ImportState(snaps[r].engine); err != nil {
					panic(err)
				}
				reps = append(reps, NewReplica(r, pipe, pol))
			}
			results = append(results, cfg.runArm(pol, level, cfg.Seed+104729*uint64(li+1), reqs, fallback, reps))
		}
	}
	return results
}

// XMannCampaign runs R2 against the X-MANN differentiable memory: attention
// queries over a distributed memory served from transposable-tile replica
// pipelines, graded against xmann.ReferenceSimilarity.
func XMannCampaign(cfg CampaignConfig) []ArmResult {
	xcfg := DefaultXMannPipelineConfig()
	M, D, keyCount := 32, 16, 64
	if cfg.Quick {
		M, D, keyCount = 16, 8, 32
	}
	rng := rngutil.New(cfg.Seed + 5)
	mem := tensor.NewMatrix(M, D)
	mr := rng.Child("memory")
	for i := range mem.Data {
		mem.Data[i] = mr.Float64()
	}

	randKey := func(r *rngutil.Source) tensor.Vector {
		key := make(tensor.Vector, D)
		for i := range key {
			key[i] = r.Float64()
		}
		return key
	}
	kr := rng.Child("keys")
	var reqs []SimRequest
	for k := 0; k < keyCount; k++ {
		key := randKey(kr)
		reqs = append(reqs, SimRequest{X: key, Want: xmann.ReferenceSimilarity(mem, key, xcfg.Beta).ArgMax()})
	}
	cr := rng.Child("canary")
	var canaryK []tensor.Vector
	for k := 0; k < 8; k++ {
		canaryK = append(canaryK, randKey(cr))
	}
	fallback := func(k tensor.Vector) tensor.Vector {
		return xmann.ReferenceSimilarity(mem, k, xcfg.Beta)
	}

	var results []ArmResult
	for li, level := range cfg.Levels {
		bases := campaignEngines(cfg, li, level)
		for _, pol := range cfg.Policies {
			var reps []*Replica
			for r := 0; r < cfg.Replicas; r++ {
				eng := bases[r].Clone()
				pipe := NewXMannPipeline(mem, canaryK, xcfg, eng.Attach,
					rngutil.New(cfg.Seed+211*uint64(r)+29))
				reps = append(reps, NewReplica(r, pipe, pol))
			}
			results = append(results, cfg.runArm(pol, level, cfg.Seed+130363*uint64(li+1), reqs, fallback, reps))
		}
	}
	return results
}

// runArm runs one policy arm at one fault level through the simulator.
func (cfg CampaignConfig) runArm(pol Policy, level float64, seed uint64, reqs []SimRequest,
	fallback func(tensor.Vector) tensor.Vector, reps []*Replica) ArmResult {
	m := RunSim(SimConfig{
		Policy: pol, Lat: cfg.Lat, Duration: cfg.Duration, Rate: cfg.Rate,
		Requests: reqs, Fallback: fallback, RNG: rngutil.New(seed),
		Obs: cfg.Obs, Tracer: cfg.Tracer,
	}, reps)
	return ArmResult{Policy: pol.Name, Level: level, M: m}
}

// RunR2 renders the full R2 experiment — both pipelines' campaign tables —
// to w. This is the body the repro pipeline and cmd/serve-campaign share, so
// every caller prints byte-identical tables for one config. Every arm's
// request accounting (Metrics.Check) must hold before anything is printed.
func RunR2(w io.Writer, cfg CampaignConfig) error {
	mlp, xm := MLPCampaign(cfg), XMannCampaign(cfg)
	if err := CheckArms("mlp", mlp); err != nil {
		return err
	}
	if err := CheckArms("xmann", xm); err != nil {
		return err
	}
	fmt.Fprintf(w, "open-loop Poisson load: %.0f req/s for %.1fs virtual, %d replicas, deadline %.1fms\n",
		cfg.Rate, cfg.Duration, cfg.Replicas, cfg.Policies[0].Deadline*1e3)
	fmt.Fprintf(w, "policies: none (no remediation), retry (verify reads + backoff), self-heal (full stack)\n\n")
	fmt.Fprint(w, FormatTable("analog digits MLP (PCM devices)", mlp))
	fmt.Fprintln(w)
	fmt.Fprint(w, FormatTable("X-MANN distributed memory", xm))
	return nil
}

// CheckArms runs the request-accounting invariant (Metrics.Check) on every
// arm of one pipeline's campaign; the error names the first failing arm as
// pipeline/level/policy. Callers printing campaign tables run it first.
func CheckArms(pipeline string, results []ArmResult) error {
	for _, r := range results {
		if err := r.M.Check(); err != nil {
			return fmt.Errorf("%s/%.2f/%s: %w", pipeline, r.Level, r.Policy, err)
		}
	}
	return nil
}
