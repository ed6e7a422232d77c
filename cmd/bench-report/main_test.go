package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func report(calib float64, names map[string]float64) Report {
	r := Report{CalibrationNsPerOp: calib}
	for n, v := range names {
		r.Benchmarks = append(r.Benchmarks, Result{Name: n, NsPerOp: v})
	}
	return r
}

// TestResolveBaseline pins the stable-filename contract: the gate reads
// BENCH.json when present, refuses the retired legacy BENCH_PR4.json with
// a named error, and never rewrites an explicitly chosen path.
func TestResolveBaseline(t *testing.T) {
	only := func(p string) func(string) bool {
		return func(q string) bool { return q == p }
	}
	if got, err := resolveBaseline(stableBaseline, only(stableBaseline)); err != nil || got != stableBaseline {
		t.Fatalf("stable baseline present but resolved to %q, err %v", got, err)
	}
	if _, err := resolveBaseline(stableBaseline, only(legacyBaseline)); !errors.Is(err, ErrLegacyBaseline) {
		t.Fatalf("legacy-only baseline: err = %v, want ErrLegacyBaseline", err)
	}
	// Neither file present: pass the stable name through so the open fails
	// with the ordinary file-not-found error.
	if got, err := resolveBaseline(stableBaseline, func(string) bool { return false }); err != nil || got != stableBaseline {
		t.Fatalf("no baseline: resolved to %q, err %v", got, err)
	}
	if got, err := resolveBaseline("/tmp/pinned.json", only(stableBaseline)); err != nil || got != "/tmp/pinned.json" {
		t.Fatalf("explicit path rewritten to %q, err %v", got, err)
	}
}

func TestGatePassesAndFlagsRegressions(t *testing.T) {
	base := report(100, map[string]float64{"forward_512": 1000})
	ok := report(200, map[string]float64{"forward_512": 2100}) // normalized 10.5 vs 10: within 25%
	bad, err := gate(ok, base, 0.25)
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean report failed the gate: bad=%v err=%v", bad, err)
	}
	slow := report(100, map[string]float64{"forward_512": 1500}) // +50% normalized
	bad, err = gate(slow, base, 0.25)
	if err != nil || len(bad) != 1 {
		t.Fatalf("regression not flagged: bad=%v err=%v", bad, err)
	}
}

// TestGateRequiresBothSignals pins the dual-evidence rule: a benchmark is
// flagged only when it regressed beyond tolerance in raw ns AND in the
// calibration-normalized cost. Calibration jitter (normalized moves, raw
// flat) and whole-machine drift (raw moves, normalized flat) each produce
// only one signal and must not flake the gate.
func TestGateRequiresBothSignals(t *testing.T) {
	base := report(100, map[string]float64{"forward_512": 1000})
	// Calibration jitter: current calibration came out fast, inflating the
	// normalized view (+43%) while raw is up only 7%.
	jitter := report(70, map[string]float64{"forward_512": 1070})
	if bad, err := gate(jitter, base, 0.25); err != nil || len(bad) != 0 {
		t.Fatalf("calibration jitter flagged: bad=%v err=%v", bad, err)
	}
	// Whole-machine drift: everything (calibration included) slowed 2×, so
	// raw is +100% but normalized is flat.
	drift := report(200, map[string]float64{"forward_512": 2000})
	if bad, err := gate(drift, base, 0.25); err != nil || len(bad) != 0 {
		t.Fatalf("machine drift flagged: bad=%v err=%v", bad, err)
	}
	// A real regression moves both views past tolerance.
	real := report(100, map[string]float64{"forward_512": 1500})
	if bad, err := gate(real, base, 0.25); err != nil || len(bad) != 1 {
		t.Fatalf("real regression not flagged: bad=%v err=%v", bad, err)
	}
}

// TestGateFailsLoudly pins the satellite fix: a zero calibration or a
// missing baseline entry used to be skipped silently (NaN/Inf normalized
// ratios compare false against any threshold, so a broken baseline passed
// the gate). Each case must now surface its named error.
func TestGateFailsLoudly(t *testing.T) {
	good := report(100, map[string]float64{"forward_512": 1000})

	if _, err := gate(report(0, map[string]float64{"forward_512": 1000}), good, 0.25); !errors.Is(err, ErrBadCalibration) {
		t.Fatalf("zero current calibration: err = %v, want ErrBadCalibration", err)
	}
	if _, err := gate(good, report(0, map[string]float64{"forward_512": 1000}), 0.25); !errors.Is(err, ErrBadCalibration) {
		t.Fatalf("zero baseline calibration: err = %v, want ErrBadCalibration", err)
	}
	if _, err := gate(good, report(100, map[string]float64{"other": 1}), 0.25); !errors.Is(err, ErrMissingBaseline) {
		t.Fatalf("missing baseline entry: err = %v, want ErrMissingBaseline", err)
	}
	if _, err := gate(report(100, map[string]float64{"forward_512": 0}), good, 0.25); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("zero current measurement: err = %v, want ErrBadMeasurement", err)
	}
	if _, err := gate(good, report(100, map[string]float64{"forward_512": -5}), 0.25); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("negative baseline measurement: err = %v, want ErrBadMeasurement", err)
	}
}

// TestBudgetedSelectsEnginePath pins which benchmarks the alloc ceiling
// covers: engine-path benchmarks yes, serial twins and calibration no.
func TestBudgetedSelectsEnginePath(t *testing.T) {
	for name, want := range map[string]bool{
		"forward_parallel_512":          true,
		"backward_parallel_1024":        true,
		"update_parallel_128":           true,
		"forward_batch_parallel_1024x8": true,
		"forward_serial_512":            false,
		"update_serial_512":             false,
		"forward_batch_serial_1024x8":   false,
		"calibration_serial_matvec_256": false,
		"serve_single_1536x192":         false,
		"serve_batch16_1536x192":        false,
	} {
		if got := budgeted(name); got != want {
			t.Errorf("budgeted(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestCheckBudgets pins the absolute perf budgets and their named errors:
// an engine-path benchmark over the alloc ceiling, or a speedup under its
// floor, each yields its own error; a report meeting every budget yields
// none.
func TestCheckBudgets(t *testing.T) {
	clean := Report{
		Benchmarks: []Result{
			{Name: "forward_serial_512", AllocsPerOp: 9}, // serial twins are exempt
			{Name: "forward_parallel_512", AllocsPerOp: allocBudget},
			{Name: "update_parallel_512", AllocsPerOp: 1},
		},
		SpeedupForward512:       forwardSpeedupFloor + 0.5,
		SpeedupUpdate512:        updateSpeedupFloor + 0.5,
		SpeedupForwardBatch1024: batchSpeedupFloor + 0.5,
		SpeedupServeBatch:       serveBatchSpeedupFloor + 0.5,
	}
	if errs := checkBudgets(clean); len(errs) != 0 {
		t.Fatalf("clean report violated budgets: %v", errs)
	}

	over := clean
	over.Benchmarks = append([]Result(nil), clean.Benchmarks...)
	over.Benchmarks = append(over.Benchmarks, Result{Name: "backward_parallel_512", AllocsPerOp: allocBudget + 1})
	errs := checkBudgets(over)
	if len(errs) != 1 || !errors.Is(errs[0], ErrAllocBudget) {
		t.Fatalf("alloc violation: errs = %v, want one ErrAllocBudget", errs)
	}

	slowFwd := clean
	slowFwd.SpeedupForward512 = forwardSpeedupFloor - 0.1
	errs = checkBudgets(slowFwd)
	if len(errs) != 1 || !errors.Is(errs[0], ErrSpeedupBudget) || !strings.Contains(errs[0].Error(), "forward 512") {
		t.Fatalf("forward speedup violation: errs = %v, want one ErrSpeedupBudget naming forward 512", errs)
	}

	slowUpd := clean
	slowUpd.SpeedupUpdate512 = updateSpeedupFloor - 0.1
	errs = checkBudgets(slowUpd)
	if len(errs) != 1 || !errors.Is(errs[0], ErrSpeedupBudget) {
		t.Fatalf("update speedup violation: errs = %v, want one ErrSpeedupBudget", errs)
	}

	slowBatch := clean
	slowBatch.SpeedupForwardBatch1024 = batchSpeedupFloor - 0.1
	errs = checkBudgets(slowBatch)
	if len(errs) != 1 || !errors.Is(errs[0], ErrSpeedupBudget) {
		t.Fatalf("batch speedup violation: errs = %v, want one ErrSpeedupBudget", errs)
	}

	slowServe := clean
	slowServe.SpeedupServeBatch = serveBatchSpeedupFloor - 0.1
	errs = checkBudgets(slowServe)
	if len(errs) != 1 || !errors.Is(errs[0], ErrSpeedupBudget) {
		t.Fatalf("serve speedup violation: errs = %v, want one ErrSpeedupBudget", errs)
	}
}

// TestObsPairCheck pins the paired overhead bound: a benchmark passes when
// its instrumented minimum stays within tol of its plain minimum, and each
// one beyond it is named.
func TestObsPairCheck(t *testing.T) {
	p := &obsPair{
		off: map[string]float64{"a": 100, "b": 100, "c": 100},
		on:  map[string]float64{"a": 104, "b": 106, "c": 90},
	}
	errs := p.check(0.05)
	if len(errs) != 1 || !errors.Is(errs[0], ErrObsOverhead) || !strings.Contains(errs[0].Error(), " b ") {
		t.Fatalf("check(0.05) = %v, want one ErrObsOverhead naming b", errs)
	}
	p.on["d"] = math.NaN()
	p.off["d"] = 100
	if errs := p.check(0.05); len(errs) != 2 {
		t.Fatalf("a NaN ratio must fail the bound, got %v", errs)
	}
}
