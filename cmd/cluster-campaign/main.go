// Command cluster-campaign runs experiment R6: the partition-tolerant
// sharded serving fleet under node-level failure injection. A front-end
// router places model shards across simulated nodes by rendezvous hashing
// and drives diurnal multi-tenant load through them while fault scenarios
// (node crash/restart, slow nodes, majority/minority partition, message
// delay and loss) play out in virtual time. It compares remediation
// policies — none, detect (failure detector + retry + staleness
// rejection), and full (+ cross-node hedging + admission control) —
// reporting goodput, p50/p99 latency, shed/unavailable/expired counts,
// staleness, and accuracy under fire. Fixed seeds make every run
// bit-reproducible regardless of -workers.
//
// Observability: -obs-addr serves /metrics (with per-node and per-shard
// labeled series), /traces and /debug/pprof/ while the campaign runs;
// -metrics-out writes a deterministic dump on exit. -obs-selfcheck probes
// the HTTP endpoint in-process — the CI smoke test.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cluster-campaign: ")
	seed := flag.Uint64("seed", 1234, "campaign seed (same seed = identical tables)")
	quick := flag.Bool("quick", false, "run the reduced-size variant")
	scenario := flag.String("scenario", "all", "fault scenario to run: all, none, crash, slow, or partition")
	nodes := flag.Int("nodes", 0, "fleet size (0 = default)")
	duration := flag.Float64("duration", 0, "arrival window in virtual seconds (0 = default)")
	workers := flag.Int("workers", 0, "tile-engine worker count (0 = all CPUs); any value yields bit-identical output")
	var hook obs.Hook
	hook.BindFlags(flag.CommandLine, "cluster_sim_completed_total", `cluster_node_served_total{node="0"}`)
	flag.Parse()
	par.SetWorkers(*workers)
	if err := hook.Start(); err != nil {
		log.Fatal(err)
	}
	par.Instrument(hook.Registry)

	cfg := cluster.DefaultCampaignConfig(*seed, *quick)
	cfg.Obs = hook.Registry
	if *nodes > 0 {
		cfg.Nodes = *nodes
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	switch *scenario {
	case "all":
	case "none":
		cfg.Scenarios = nil
	case "crash", "slow", "partition":
		cfg.Scenarios = []string{*scenario}
	default:
		log.Fatalf("unknown scenario %q (want all, none, crash, slow, or partition)", *scenario)
	}

	var err error
	if *scenario == "all" && *nodes == 0 && *duration == 0 {
		e, _ := core.Lookup("R6")
		fmt.Printf("=== %s: %s ===\npaper: %s\n\n", e.ID, e.Title, e.PaperClaim)
		err = e.Run(os.Stdout, *seed, *quick)
	} else {
		err = cluster.RunR6(os.Stdout, cfg)
	}
	if err == nil {
		err = hook.SelfCheck()
	}
	if ferr := hook.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		log.Fatal(err)
	}
}
