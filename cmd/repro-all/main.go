// Command repro-all runs the experiment registry (every figure, claim, and
// table of the paper) and writes the results to stdout — the harness used
// to produce EXPERIMENTS.md. -only restricts the run to a comma-separated
// list of experiment IDs, e.g. -only F1,F2,C0,C1,C2,C3,C7 for the §II
// analog-crossbar studies, T1 for X-MANN (§III), C4,F5,C5,C6 for the
// CAM/TCAM studies (§IV), or T2 for recommendation (§V).
package main

import (
	"flag"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro-all: ")
	seed := flag.Uint64("seed", 1234, "experiment seed")
	quick := flag.Bool("quick", false, "run reduced-size variants")
	only := flag.String("only", "", "comma-separated experiment IDs to run, in order (empty = all)")
	workers := flag.Int("workers", 0, "tile-engine worker count (0 = all CPUs); any value yields bit-identical output")
	var hook obs.Hook
	hook.BindFlags(flag.CommandLine)
	flag.Parse()
	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	par.SetWorkers(*workers)
	if err := hook.Start(); err != nil {
		log.Fatal(err)
	}
	par.Instrument(hook.Registry)

	err := core.RunAll(os.Stdout, *seed, *quick, ids...)
	if ferr := hook.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		log.Fatal(err)
	}
}
