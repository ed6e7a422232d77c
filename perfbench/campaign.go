package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// campaign-sim: one op renders the quick R2 serve campaign and the quick R6
// cluster campaign for one campaign seed and checks the output's hash. The
// run cycles through the fixed campaignSeeds list from a position --seed
// picks, so every run does the same work.
var campaignSeeds = []uint64{1, 2, 3, 4}

const (
	// campaignWarmupSeed is the seed of the untimed R6 campaign set-up runs
	// so the heap and the tile engine's pools have grown before timing.
	campaignWarmupSeed = 99
	// campaignOpLimitMs is the per-op latency limit goodput counts against.
	campaignOpLimitMs = 10000
)

var campaignWorkload = workload{
	name:         "campaign-sim",
	opsPerSecond: 0.4,
	setup:        setupCampaign,
}

type campaignInstance struct {
	first int // position in campaignSeeds of the first op's seed
}

// setupCampaign warms up with one R6 campaign: each campaign builds its own
// simulated fleet inside the timed op, so the set-up left is the runtime's
// own (heap growth, worker pools).
func setupCampaign(seed uint64, _ *tracer) (instance, error) {
	if err := cluster.RunR6(io.Discard, cluster.DefaultCampaignConfig(campaignWarmupSeed, true)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &campaignInstance{first: int(seed % uint64(len(campaignSeeds)))}, nil
}

func (r *campaignInstance) close() {}

// simOutcome is one op: its output hash, the host time each simulator
// took, and the requests they simulated.
type simOutcome struct {
	hash             string
	serveS, clusterS float64
	offered, good    int64
}

func runCampaigns(seed uint64) (*simOutcome, error) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	sc := serve.DefaultCampaignConfig(seed, true)
	sc.Obs = reg
	t0 := time.Now()
	if err := serve.RunR2(&buf, sc); err != nil {
		return nil, fmt.Errorf("R2 seed %d: %w", seed, err)
	}
	t1 := time.Now()
	cc := cluster.DefaultCampaignConfig(seed, true)
	cc.Obs = reg
	if err := cluster.RunR6(&buf, cc); err != nil {
		return nil, fmt.Errorf("R6 seed %d: %w", seed, err)
	}
	t2 := time.Now()
	sum := sha256.Sum256(buf.Bytes())
	offered := reg.Counter("serve_sim_offered_total", "").Value() + reg.Counter("cluster_sim_offered_total", "").Value()
	good := reg.Counter("serve_sim_good_total", "").Value() + reg.Counter("cluster_sim_good_total", "").Value()
	return &simOutcome{
		hash:   hex.EncodeToString(sum[:8]),
		serveS: t1.Sub(t0).Seconds(), clusterS: t2.Sub(t1).Seconds(),
		offered: offered, good: good,
	}, nil
}

func (r *campaignInstance) run(ops int) *outcome {
	out := &outcome{attempted: int64(ops)}
	lat := make([]float64, ops)
	hashes := map[uint64]string{}
	var serveS, clusterS float64
	var offered, good int64
	work := make([]float64, ops)
	for op := range lat {
		out.host.sample(10)
		seed := campaignSeeds[(r.first+op)%len(campaignSeeds)]
		t0 := time.Now()
		res, err := runCampaigns(seed)
		if err != nil {
			out.fail("%v", err)
			continue
		}
		lat[op] = msSince(t0)
		work[op] = float64(res.offered)
		if want, ok := campaignHashes[seed]; ok && res.hash != want {
			out.fail("campaign seed %d hashed to %s, want %s", seed, res.hash, want)
		}
		hashes[seed] = res.hash
		serveS += res.serveS
		clusterS += res.clusterS
		offered += res.offered
		good += res.good
	}
	out.layers = map[string]float64{
		"sim.serve_s":   serveS / float64(ops),
		"sim.cluster_s": clusterS / float64(ops),
		"sim.requests":  float64(offered) / float64(ops),
	}
	simGoodput := 0.0
	if offered > 0 {
		simGoodput = float64(good) / float64(offered)
	}
	out.e2e = closedLoopMetrics(lat, work, campaignOpLimitMs, simGoodput)
	out.speed = out.e2e["throughput"]
	out.fingerprint = fmt.Sprintf("hashes=%v requests=%d good=%d", hashes, offered, good)
	return out
}
