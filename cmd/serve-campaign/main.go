// Command serve-campaign runs experiment R2: the self-healing concurrent
// inference service under open-loop Poisson load and progressive fault
// injection. For each pipeline (analog digits MLP on PCM devices, X-MANN
// distributed memory) it compares serving policies — none, retry-only, and
// the full self-healing stack (retry + hedged reads + canary-fed circuit
// breaker + background recalibration + digital fallback) — reporting
// goodput, p50/p99 latency, deadline-miss rate, and accuracy under fire.
// Fixed seeds make every run bit-reproducible.
//
// Observability: -obs-addr serves /metrics, /traces and /debug/pprof/ while
// the campaign runs; -metrics-out and -trace-out write deterministic dumps
// on exit (byte-identical across -workers values). -obs-selfcheck probes
// the HTTP endpoint in-process after the campaign — the CI smoke test.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve-campaign: ")
	seed := flag.Uint64("seed", 1234, "campaign seed (same seed = identical tables)")
	quick := flag.Bool("quick", false, "run the reduced-size variant")
	pipeline := flag.String("pipeline", "all", "which campaign to run: mlp, xmann, or all")
	replicas := flag.Int("replicas", 0, "replica pool size (0 = default)")
	rate := flag.Float64("rate", 0, "arrival rate in requests/s (0 = default)")
	duration := flag.Float64("duration", 0, "arrival window in virtual seconds (0 = default)")
	batch := flag.Int("batch", 0, "coalesce up to N queued requests per dispatch on every policy arm (0 or 1 = off)")
	workers := flag.Int("workers", 0, "tile-engine worker count (0 = all CPUs); any value yields bit-identical output")
	var hook obs.Hook
	hook.BindFlags(flag.CommandLine, "serve_sim_completed_total")
	flag.Parse()
	par.SetWorkers(*workers)
	if err := hook.Start(); err != nil {
		log.Fatal(err)
	}
	par.Instrument(hook.Registry)

	cfg := serve.DefaultCampaignConfig(*seed, *quick)
	cfg.Obs = hook.Registry
	cfg.Tracer = hook.Tracer
	if *replicas > 0 {
		cfg.Replicas = *replicas
	}
	if *rate > 0 {
		cfg.Rate = *rate
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	cfg = cfg.WithBatch(*batch)

	var err error
	switch *pipeline {
	case "all":
		if *replicas > 0 || *rate > 0 || *duration > 0 || *batch > 1 {
			log.Print("note: -replicas/-rate/-duration/-batch apply to single pipelines; -pipeline all runs the registered R2 configuration")
		}
		e, _ := core.Lookup("R2")
		fmt.Printf("=== %s: %s ===\npaper: %s\n\n", e.ID, e.Title, e.PaperClaim)
		err = e.Run(os.Stdout, *seed, *quick)
	case "mlp":
		err = printArms("mlp", "analog digits MLP (PCM devices)", serve.MLPCampaign(cfg))
	case "xmann":
		err = printArms("xmann", "X-MANN distributed memory", serve.XMannCampaign(cfg))
	default:
		log.Fatalf("unknown pipeline %q (want mlp, xmann, or all)", *pipeline)
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

// printArms prints one pipeline's campaign table once every arm's request
// accounting holds, as serve.RunR2 does for the full experiment.
func printArms(pipeline, title string, arms []serve.ArmResult) error {
	if err := serve.CheckArms(pipeline, arms); err != nil {
		return err
	}
	fmt.Print(serve.FormatTable(title, arms))
	return nil
}
