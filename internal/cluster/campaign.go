package cluster

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rngutil"
	"repro/internal/serve"
)

// CampaignConfig parameterizes experiment R6: diurnal multi-tenant load
// against a sharded fleet under node-level fault scenarios, compared
// across remediation policies. Bit-reproducible in (config, Seed).
type CampaignConfig struct {
	Seed  uint64
	Quick bool
	// Nodes is the fleet size; Shards and ReplicasPer the placement.
	Nodes, Shards, ReplicasPer int
	// Duration is the arrival window in virtual seconds.
	Duration float64
	Traffic  TrafficConfig
	Lat      serve.LatencyModel
	Net      NetModel
	Detector DetectorConfig
	// RefreshEvery is the model-version broadcast period.
	RefreshEvery float64
	// Scenarios are the node-fault scenarios swept; Levels the non-zero
	// intensity multipliers applied to each (the fault-free baseline runs
	// once under scenario "none" at level 0).
	Scenarios []string
	Levels    []float64
	Policies  []Policy
	// Obs, when non-nil, accumulates counters and per-node/per-shard
	// labeled series across every cell.
	Obs *obs.Registry
}

// DefaultCampaignConfig returns the R6 configuration.
func DefaultCampaignConfig(seed uint64, quick bool) CampaignConfig {
	c := CampaignConfig{
		Seed:        seed,
		Quick:       quick,
		Nodes:       6,
		Shards:      8,
		ReplicasPer: 2,
		Duration:    6.0,
		Traffic: TrafficConfig{
			BaseRate:      260,
			DiurnalAmp:    0.5,
			DiurnalPeriod: 6.0,
			Bursts:        []Burst{{At: 1.5, For: 0.5, Mult: 2.5}, {At: 4.0, For: 0.4, Mult: 2.0}},
			Tenants: []Tenant{
				{Name: "batch", Share: 0.3, RatePerSec: 140, Burst: 30},
				{Name: "online", Share: 0.7, RatePerSec: 400, Burst: 80, ClosedClients: 4, ThinkTime: 0.05},
			},
		},
		Lat:          serve.DefaultLatencyModel(),
		Net:          DefaultNetModel(),
		Detector:     DefaultDetectorConfig(),
		RefreshEvery: 0.5,
		Scenarios:    []string{"crash", "slow", "partition"},
		Levels:       []float64{1, 2},
		Policies:     []Policy{PolicyNone(), PolicyDetect(), PolicyFull()},
	}
	if quick {
		c.Nodes = 5
		c.Shards = 6
		c.Duration = 3.0
		c.Traffic.BaseRate = 180
		c.Traffic.Bursts = []Burst{{At: 1.0, For: 0.4, Mult: 2.5}}
		c.Levels = []float64{1, 2}
	}
	return c
}

// scenarioPlan scales one named node-fault scenario by the level
// multiplier. The fleet timing context: ~1 ms services, 25 ms deadlines,
// 50 ms heartbeats, 0.5 s model refreshes.
func scenarioPlan(name string, level float64, cfg CampaignConfig) faults.NodePlan {
	if level <= 0 || name == "none" {
		return faults.NodePlan{}
	}
	switch name {
	case "crash":
		// Nodes crash and come back stale: restarts long enough that the
		// detector notices, short enough that re-admission matters.
		return faults.NodePlan{
			CrashesPerNode: 0.5 * level,
			RestartAfter:   0.20 * cfg.Duration,
			MsgLoss:        0.005 * level,
		}
	case "slow":
		// A subset of nodes stragglers at SlowFactor× service time in
		// recurring windows — the case hedging exists for.
		return faults.NodePlan{
			SlowNodes:  1 + int(level/2),
			SlowFactor: 8 * level,
			SlowEvery:  cfg.Duration / 3,
			SlowFor:    cfg.Duration / 6,
			MsgLoss:    0.005 * level,
		}
	case "partition":
		// A minority cell is cut off mid-run and heals later; the fabric
		// is lossy and slow throughout.
		minority := cfg.Nodes/2 - 1
		if minority < 1 {
			minority = 1
		}
		return faults.NodePlan{
			PartitionAt:   0.30 * cfg.Duration,
			PartitionFor:  0.25 * cfg.Duration * level,
			MinorityNodes: minority,
			MsgLoss:       0.01 * level,
			MsgDelayMult:  1 + 0.5*level,
		}
	}
	panic("cluster: unknown scenario " + name)
}

// buildShards trains the golden digits MLP once and programs one pure
// analog pipeline per shard (no fault hook): answers are
// deterministic functions of the programmed state, so the single-threaded
// sim shares the pipelines across every cell and policy arm.
func buildShards(cfg CampaignConfig) ([]serve.Pipeline, []serve.SimRequest) {
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

	pcfg := serve.DefaultMLPPipelineConfig()
	pipes := make([]serve.Pipeline, cfg.Shards)
	for sh := 0; sh < cfg.Shards; sh++ {
		pipes[sh] = serve.NewMLPPipeline(golden, nil, pcfg, nil,
			rng.Child(fmt.Sprintf("shard%d", sh)))
	}
	var reqs []serve.SimRequest
	for i := range test.X {
		reqs = append(reqs, serve.SimRequest{X: test.X[i], Want: test.Y[i]})
	}
	return pipes, reqs
}

// Campaign sweeps (scenario × level × policy) and returns one row per
// cell, fault-free baseline first. Every policy inside a cell faces the
// identical node-fault schedule and arrival stream (common random
// numbers).
func Campaign(cfg CampaignConfig) []CellResult {
	pipes, reqs := buildShards(cfg)
	type cell struct {
		scenario string
		level    float64
	}
	cells := []cell{{"none", 0}}
	for _, sc := range cfg.Scenarios {
		for _, lv := range cfg.Levels {
			cells = append(cells, cell{sc, lv})
		}
	}
	var results []CellResult
	for ci, c := range cells {
		plan := scenarioPlan(c.scenario, c.level, cfg)
		schedule := plan.Schedule(cfg.Nodes, cfg.Duration,
			rngutil.New(cfg.Seed+7919*uint64(ci+1)))
		for _, pol := range cfg.Policies {
			m := RunClusterSim(SimConfig{
				Policy:       pol,
				Traffic:      cfg.Traffic,
				Lat:          cfg.Lat,
				Net:          cfg.Net,
				Detector:     cfg.Detector,
				Duration:     cfg.Duration,
				Nodes:        cfg.Nodes,
				Placement:    Placement{Shards: cfg.Shards, ReplicasPer: cfg.ReplicasPer},
				ShardPipes:   pipes,
				Requests:     reqs,
				Plan:         plan,
				Schedule:     schedule,
				RefreshEvery: cfg.RefreshEvery,
				RNG:          rngutil.New(cfg.Seed + 104729*uint64(ci+1)),
				Obs:          cfg.Obs,
			})
			results = append(results, CellResult{Scenario: c.scenario, Level: c.level, Policy: pol.Name, M: m})
		}
	}
	return results
}

// RunR6 renders the full R6 experiment table to w — the body the repro
// pipeline and cmd/cluster-campaign share, so every caller prints
// byte-identical tables for one config.
func RunR6(w io.Writer, cfg CampaignConfig) error {
	fmt.Fprintf(w, "sharded fleet: %d nodes, %d shards x%d replicas, %.0f req/s base (diurnal + bursts) for %.1fs virtual, deadline %.1fms\n",
		cfg.Nodes, cfg.Shards, cfg.ReplicasPer, cfg.Traffic.BaseRate, cfg.Duration, cfg.Policies[0].Deadline*1e3)
	fmt.Fprintf(w, "policies: none (blind routing, stale served), detect (failure detector + retry + staleness rejection), full (+ hedging + admission control)\n\n")
	results := Campaign(cfg)
	for _, r := range results {
		if err := r.M.Check(); err != nil {
			return fmt.Errorf("%s/%.2f/%s: %w", r.Scenario, r.Level, r.Policy, err)
		}
	}
	fmt.Fprint(w, FormatClusterTable("sharded analog serving fleet (node-level chaos)", results))
	return nil
}
