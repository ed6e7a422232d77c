GO ?= go

.PHONY: all build fmt vet lint test race check ci-sync deadcode portable fuzz \
	smoke cluster-smoke determinism golden obs-smoke bench-quick \
	bench-selftest bench-layout bench-baseline campaign serve-campaign \
	train-campaign cluster-campaign full

# The CI gate: every ci.yml job body is a target here, and `make all` runs
# all of them but the slow `full` and the manual `bench-baseline`.
all: check deadcode portable fuzz smoke cluster-smoke determinism golden \
	obs-smoke bench-quick bench-selftest

build:
	$(GO) build ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint: fmt vet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ci-sync proves the promise the ci.yml header makes: every workflow job
# body is exactly a `make` target that exists here, so the Makefile and CI
# can't drift.
ci-sync:
	$(GO) run ./cmd/ci-sync

# deadcode fails on any function under internal/ that no checked binary
# reaches, and on any exported bool, string, integer or float field of an
# internal/ struct that no non-test file assigns, unless
# testdata/deadcode.allow keeps it as a test oracle, test seam or shared
# test helper; stale allowlist entries fail too. The checked binaries are
# perfbench and every main package a `$(GO) run` command of this Makefile
# runs; a main package no target runs fails the check itself.
deadcode:
	$(GO) run ./cmd/deadcode

# The core CI gate: formatting + vet + build + race-enabled tests + the
# CI/Makefile drift check.
check: lint build race ci-sync

# The Go loops the amd64 assembly leaves shadow are the only kernels on
# other architectures: vet and build the tree for arm64 so they keep
# building. (vet's asmdecl check of the amd64 leaves runs in `check`.)
portable:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# Short fuzzing legs over the byte-level decoders, the TCAM match kernel,
# the crossbar read memo, the expected-mode update kernel and the per-law
# program loops: checkpoint
# payloads, the write-ahead log and the fault engine's exported state must
# decode or be rejected with an error, never panic, and round-trip exactly;
# the word-parallel TCAM mismatch count must equal the per-cell rule on
# arbitrary byte rows; every hook-free read, after any script of array
# operations, must equal the exact MVM of the current weights; and an
# expected-mode Update on noiseless linear-step devices must leave the
# same bits and Counts as UpdateReference; and write-verify programming on
# every device model, with stuck cells, a dropping fault hook and aims out
# of bounds, must leave the same bits, Counts and stream positions as
# pulsing one pulse at a time through UpdateDeviceExact.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 5s
fuzz:
	$(FUZZ) -fuzz '^FuzzDecode$$' ./internal/ckpt
	$(FUZZ) -fuzz '^FuzzReadWAL$$' ./internal/ckpt
	$(FUZZ) -fuzz '^FuzzImportState$$' ./internal/faults
	$(FUZZ) -fuzz '^FuzzMismatches$$' ./internal/cam
	$(FUZZ) -fuzz '^FuzzReadMemo$$' ./internal/crossbar
	$(FUZZ) -fuzz '^FuzzUpdateExpected$$' ./internal/crossbar
	$(FUZZ) -fuzz '^FuzzProgramDevice$$' ./internal/crossbar

# The campaign/checkpoint smoke legs CI runs beyond `check`, plus the
# per-section experiment selection of repro-all on the fast IDs (one or two
# from each paper section).
smoke:
	$(GO) test -race -count=1 ./internal/serve/...
	$(GO) run ./cmd/serve-campaign -quick
	$(GO) test -count=1 ./internal/ckpt/... ./internal/chaos/...
	$(GO) run ./cmd/train-campaign -smoke
	$(GO) run ./cmd/repro-all -quick -only F1,F2,C7,T1,C5,C6,T2

# Fleet smoke: the R6 cluster campaign's acceptance tests (dominance,
# request accounting, partition staleness, placement churn) plus a seeded
# quick campaign through the real binary.
cluster-smoke:
	$(GO) test -count=1 ./internal/cluster/... ./internal/faults/...
	$(GO) run ./cmd/cluster-campaign -quick

# Campaign outputs must be byte-identical at every tile-engine worker
# count (the internal/par determinism contract). The stable metric and
# trace dumps (-metrics-out/-trace-out) are under the same contract: the
# simulator feeds the registry from virtual time, never the wall clock.
# The outputs land in DETERMINISM_OUT, so two checkouts can run it at once.
DETERMINISM_OUT ?= /tmp/determinism
determinism:
	mkdir -p $(DETERMINISM_OUT)
	$(GO) run ./cmd/serve-campaign -quick -workers 1 \
		-metrics-out $(DETERMINISM_OUT)/serve.w1.metrics -trace-out $(DETERMINISM_OUT)/serve.w1.traces > $(DETERMINISM_OUT)/serve.w1.txt
	$(GO) run ./cmd/serve-campaign -quick -workers 4 \
		-metrics-out $(DETERMINISM_OUT)/serve.w4.metrics -trace-out $(DETERMINISM_OUT)/serve.w4.traces > $(DETERMINISM_OUT)/serve.w4.txt
	cmp $(DETERMINISM_OUT)/serve.w1.txt $(DETERMINISM_OUT)/serve.w4.txt
	cmp $(DETERMINISM_OUT)/serve.w1.metrics $(DETERMINISM_OUT)/serve.w4.metrics
	cmp $(DETERMINISM_OUT)/serve.w1.traces $(DETERMINISM_OUT)/serve.w4.traces
	$(GO) run ./cmd/serve-campaign -quick -pipeline mlp -batch 4 -workers 1 \
		-metrics-out $(DETERMINISM_OUT)/serve.b4.w1.metrics > $(DETERMINISM_OUT)/serve.b4.w1.txt
	$(GO) run ./cmd/serve-campaign -quick -pipeline mlp -batch 4 -workers 4 \
		-metrics-out $(DETERMINISM_OUT)/serve.b4.w4.metrics > $(DETERMINISM_OUT)/serve.b4.w4.txt
	cmp $(DETERMINISM_OUT)/serve.b4.w1.txt $(DETERMINISM_OUT)/serve.b4.w4.txt
	cmp $(DETERMINISM_OUT)/serve.b4.w1.metrics $(DETERMINISM_OUT)/serve.b4.w4.metrics
	$(GO) run ./cmd/train-campaign -smoke -workers 1 \
		-metrics-out $(DETERMINISM_OUT)/train.w1.metrics > $(DETERMINISM_OUT)/train.w1.txt
	$(GO) run ./cmd/train-campaign -smoke -workers 4 \
		-metrics-out $(DETERMINISM_OUT)/train.w4.metrics > $(DETERMINISM_OUT)/train.w4.txt
	cmp $(DETERMINISM_OUT)/train.w1.txt $(DETERMINISM_OUT)/train.w4.txt
	cmp $(DETERMINISM_OUT)/train.w1.metrics $(DETERMINISM_OUT)/train.w4.metrics
	$(GO) run ./cmd/cluster-campaign -quick -workers 1 \
		-metrics-out $(DETERMINISM_OUT)/cluster.w1.metrics > $(DETERMINISM_OUT)/cluster.w1.txt
	$(GO) run ./cmd/cluster-campaign -quick -workers 4 \
		-metrics-out $(DETERMINISM_OUT)/cluster.w4.metrics > $(DETERMINISM_OUT)/cluster.w4.txt
	cmp $(DETERMINISM_OUT)/cluster.w1.txt $(DETERMINISM_OUT)/cluster.w4.txt
	cmp $(DETERMINISM_OUT)/cluster.w1.metrics $(DETERMINISM_OUT)/cluster.w4.metrics
	$(GO) run ./cmd/bench-report -quick -workers 1 > $(DETERMINISM_OUT)/bench.w1.txt
	$(GO) run ./cmd/bench-report -quick -workers 4 > $(DETERMINISM_OUT)/bench.w4.txt
	cmp $(DETERMINISM_OUT)/bench.w1.txt $(DETERMINISM_OUT)/bench.w4.txt

# Golden outputs: the quick campaign outputs (R1 fault, R2 serve, R3 train,
# R6 cluster), every quick experiment of repro-all, the kernel checksums, the
# three examples, and the campaigns' stable metric and trace dumps must stay
# byte-identical to the committed files under testdata/golden, so a change
# that claims to keep behaviour the same is checked, not only claimed. A
# change that moves them on purpose regenerates the files with
# `make golden GOLDEN_OUT=testdata/golden` and says why in CHANGES.md.
GOLDEN = testdata/golden
GOLDEN_OUT ?= /tmp/golden
GOLDEN_FILES = bench-report.txt train-campaign.txt serve-campaign.txt \
	serve-campaign.metrics serve-campaign.traces repro-all.txt \
	fault-campaign.txt fault-campaign.metrics \
	cluster-campaign.txt cluster-campaign.metrics \
	quickstart.txt analog_training.txt recsys_profile.txt
golden:
	mkdir -p $(GOLDEN_OUT)
	$(GO) run ./cmd/bench-report -quick > $(GOLDEN_OUT)/bench-report.txt
	$(GO) run ./cmd/train-campaign -smoke > $(GOLDEN_OUT)/train-campaign.txt
	$(GO) run ./cmd/serve-campaign -quick \
		-metrics-out $(GOLDEN_OUT)/serve-campaign.metrics \
		-trace-out $(GOLDEN_OUT)/serve-campaign.traces > $(GOLDEN_OUT)/serve-campaign.txt
	$(GO) run ./cmd/repro-all -quick > $(GOLDEN_OUT)/repro-all.txt
	$(GO) run ./cmd/fault-campaign -quick \
		-metrics-out $(GOLDEN_OUT)/fault-campaign.metrics > $(GOLDEN_OUT)/fault-campaign.txt
	$(GO) run ./cmd/cluster-campaign -quick \
		-metrics-out $(GOLDEN_OUT)/cluster-campaign.metrics > $(GOLDEN_OUT)/cluster-campaign.txt
	$(GO) run ./examples/quickstart > $(GOLDEN_OUT)/quickstart.txt
	$(GO) run ./examples/analog_training > $(GOLDEN_OUT)/analog_training.txt
	$(GO) run ./examples/recsys_profile > $(GOLDEN_OUT)/recsys_profile.txt
	for f in $(GOLDEN_FILES); do cmp $(GOLDEN)/$$f $(GOLDEN_OUT)/$$f || exit 1; done

# The full-size experiment tables (every repro-all experiment at seed 1234,
# about a minute) must stay byte-identical to the committed results_full.txt.
# Not part of `all`: it has a CI job of its own. A change that moves them on
# purpose regenerates the file with `go run ./cmd/repro-all -seed 1234` and
# says why in CHANGES.md.
full:
	mkdir -p $(GOLDEN_OUT)
	$(GO) run ./cmd/repro-all -seed 1234 > $(GOLDEN_OUT)/results_full.txt
	cmp results_full.txt $(GOLDEN_OUT)/results_full.txt

# Observability smoke: boot the campaign with the HTTP endpoint up and probe
# /metrics, /traces and /debug/pprof/profile in-process; diff the stable
# metric dumps across worker counts (fault campaign leg); and bound the
# instrumented tile engine's overhead at 5%. The overhead check is paired:
# one bench-report process times every benchmark with the instruments
# detached and attached in interleaved reps and bounds the ratio of the
# per-arm minima, so both arms see the same machine regime. The absolute
# perf budgets are off under -obs: this leg only bounds instrumentation
# overhead.
# The outputs land in DETERMINISM_OUT, so two checkouts can run it at once.
obs-smoke:
	mkdir -p $(DETERMINISM_OUT)
	$(GO) run ./cmd/serve-campaign -quick -pipeline mlp \
		-obs-addr 127.0.0.1:0 -obs-selfcheck > $(DETERMINISM_OUT)/obs.selfcheck.txt
	grep "obs-selfcheck: GET /metrics" $(DETERMINISM_OUT)/obs.selfcheck.txt
	$(GO) run ./cmd/fault-campaign -quick -workers 1 -metrics-out $(DETERMINISM_OUT)/faults.w1.metrics > /dev/null
	$(GO) run ./cmd/fault-campaign -quick -workers 4 -metrics-out $(DETERMINISM_OUT)/faults.w4.metrics > /dev/null
	cmp $(DETERMINISM_OUT)/faults.w1.metrics $(DETERMINISM_OUT)/faults.w4.metrics
	$(GO) run ./cmd/bench-report -obs -benchtime 0.3s -workers 4 \
		-out $(DETERMINISM_OUT)/bench.obs.json -tolerance 0.05

# Quick benchmark pass: writes a fresh report next to the committed
# baseline (as BENCH.ci.json), enforces the absolute perf budgets (allocs
# ≤2 on every engine benchmark, forward-512 ≥1.5x, update-512 ≥2x,
# batched forward-1024 ≥2.24x, batched live service ≥1.5x), and gates
# regressions at 35% against the committed BENCH.json (a regression must
# show in both raw and calibration-normalized cost;
# 35% because the shared runners' DRAM-vs-cache regime swings more than
# 25% between windows on memory-bound benchmarks, which the cache-resident
# calibration benchmark cannot normalize away — real kernel regressions
# this gate exists for measure well beyond 35%).
# The single-sample forward-512 speedup is memory-bound and noisy on
# shared runners, so its budget is a coarse 1.5x sanity floor.
#
# Three-strike retry: timing on a shared runner has transient slow spells
# that no single measurement survives; a genuine budget violation or code
# regression is persistent and fails all three attempts, each loudly via
# the named-error machinery.
BENCH_QUICK = $(GO) run ./cmd/bench-report -benchtime 0.3s -workers 4 \
	-out BENCH.ci.json -baseline BENCH.json \
	-tolerance 0.35
bench-quick:
	$(BENCH_QUICK) || $(BENCH_QUICK) || $(BENCH_QUICK)

# The repository benchmark's own vet and tests. perfbench/ is a module of
# its own, so the root `./...` patterns never reach it.
bench-selftest:
	cd perfbench && $(GO) vet . && $(GO) test .

# Where the repository benchmark's hot code lands: builds perfbench into
# DETERMINISM_OUT with the environment perfbench/run.sh builds it with, and
# prints the address mod 64 of the host probe and of the dense read
# kernels. Code size anywhere in internal/ can move them by 32 bytes, and
# the probe's offset changes how it reads, which scales every end-to-end
# time and rate the benchmark reports, so compare it across two commits
# before trusting their scaled deltas. Nothing is written under perfbench/.
BENCH_LAYOUT_SYMS = main.probe 'repro/internal/tensor.(*Matrix).MatVec' \
	'repro/internal/tensor.(*Matrix).MatVecT' repro/internal/par.forwardTile
bench-layout:
	mkdir -p $(DETERMINISM_OUT)
	cd perfbench && GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		$(GO) build -o $(abspath $(DETERMINISM_OUT))/perfbench .
	$(GO) tool nm $(DETERMINISM_OUT)/perfbench > $(DETERMINISM_OUT)/perfbench.nm
	@for s in $(BENCH_LAYOUT_SYMS); do \
		a=$$(awk -v s="$$s" '$$2 == "T" && $$3 == s { print $$1 }' $(DETERMINISM_OUT)/perfbench.nm); \
		if [ -z "$$a" ]; then echo "bench-layout: no text symbol $$s"; exit 1; fi; \
		printf '%-42s %8s  mod 64 = %2d\n' "$$s" "$$a" $$((0x$$a % 64)); \
	done

# Regenerate the committed benchmark baseline (slow, full benchtime).
bench-baseline:
	$(GO) run ./cmd/bench-report -benchtime 1s -workers 4 -out BENCH.json

# Regenerate the R1 fault-campaign tables (full size, fixed seed).
campaign:
	$(GO) run ./cmd/fault-campaign -seed 1234

# Regenerate the R2 self-healing service tables (full size, fixed seed).
serve-campaign:
	$(GO) run ./cmd/serve-campaign -seed 1234

# Regenerate the R3 crash-safe training table (full size, fixed seed).
train-campaign:
	$(GO) run ./cmd/train-campaign -seed 1234

# Regenerate the R6 cluster-fleet tables (full size, fixed seed).
cluster-campaign:
	$(GO) run ./cmd/cluster-campaign -seed 1234
