// Package core is the paper-facing facade of the repository: a registry
// that maps every quantitative artifact of "Emerging Neural Workloads and
// Their Impact on Hardware" (DATE 2020) — figures F1/F2/F5, claims C1–C6,
// tables T1/T2, per DESIGN.md — to a runnable experiment that regenerates
// the corresponding numbers on the simulated substrates.
//
// Command-line tools (cmd/*, with cmd/repro-all -only selecting any subset)
// and the benchmark harness (bench_test.go) drive experiments exclusively
// through this registry, so every reported number has exactly one
// implementation.
package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the artifact identifier from DESIGN.md (e.g. "T1").
	ID string
	// Title is a one-line description of what is regenerated.
	Title string
	// PaperClaim restates the number/shape the paper reports.
	PaperClaim string
	// Quick runs a reduced-size variant when true (used by unit tests);
	// the full variant regenerates the EXPERIMENTS.md numbers.
	Run func(w io.Writer, seed uint64, quick bool) error
}

var registry = map[string]Experiment{}

// register adds an experiment at package init; duplicate IDs panic.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Registry returns all experiments ordered by ID.
func Registry() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// ErrUnknownExperiment reports an experiment ID that is not registered.
var ErrUnknownExperiment = errors.New("unknown experiment")

// selectExperiments resolves ids, in the given order, to registered
// experiments; no ids selects the whole registry in ID order.
func selectExperiments(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return Registry(), nil
	}
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := registry[id]
		if !ok {
			known := make([]string, 0, len(registry))
			for _, e := range Registry() {
				known = append(known, e.ID)
			}
			return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownExperiment, id, strings.Join(known, ","))
		}
		out = append(out, e)
	}
	return out, nil
}

// RunAll executes the experiments named by ids in the given order — every
// experiment in ID order when ids is empty — writing section headers
// between them. An unknown ID fails with ErrUnknownExperiment before any
// experiment runs.
func RunAll(w io.Writer, seed uint64, quick bool, ids ...string) error {
	exps, err := selectExperiments(ids)
	if err != nil {
		return err
	}
	for _, e := range exps {
		fmt.Fprintf(w, "\n=== %s: %s ===\npaper: %s\n\n", e.ID, e.Title, e.PaperClaim)
		if err := e.Run(w, seed, quick); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
	}
	return nil
}
