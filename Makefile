# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race vet compilerdiag baseline concsurface concbaseline parsafe parsafebaseline check fuzz-cfg fuzz-purity fuzz-sched bench benchgate benchrecord gobench figures trace-smoke par-smoke serve-smoke history-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/ookami-vet ./...

# Diff the compiler's escape/BCE diagnostics for every package against
# the checked-in baseline; fails on any new diagnostic in a hot function.
# The whole tree, not the default kernel-package scope, so that hot
# functions outside the kernels (internal/trace) are gated too.
compilerdiag:
	$(GO) run ./cmd/ookami-vet -compilerdiag ./...

# Re-record the compilerdiag baseline after an intentional codegen
# change. The resulting JSON diff is part of the PR under review.
baseline:
	$(GO) run ./cmd/ookami-vet -compilerdiag -update-baseline ./...

# Diff the concurrency surface (goroutine spawns, lock acquisitions,
# channel makes) of the simulated-runtime packages against the
# checked-in baseline; any new site fails until acknowledged.
concsurface:
	$(GO) run ./cmd/ookami-vet -concsurface

# Re-record the concurrency-surface baseline after an intentionally
# added spawn/lock/chan site. The JSON diff is part of the PR review.
concbaseline:
	$(GO) run ./cmd/ookami-vet -concsurface -update-baseline

# Diff the certified //ookami:pure entry points' transitive effect sets
# against the checked-in baseline; a certified function gaining an
# impure or hidden-input effect (or losing its marker) fails.
parsafe:
	$(GO) run ./cmd/ookami-vet -parsafe

# Re-record the parallel-safety baseline after certifying new entry
# points or an acknowledged effect change. The JSON diff is part of the
# PR under review.
parsafebaseline:
	$(GO) run ./cmd/ookami-vet -parsafe -update-baseline

# The full gate: what a PR must keep green.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/ookami-vet ./...
	$(GO) run ./cmd/ookami-vet -compilerdiag ./...
	$(GO) run ./cmd/ookami-vet -concsurface
	$(GO) run ./cmd/ookami-vet -parsafe

# Short fuzz pass over the CFG builder: any parseable function body
# must yield a total, well-formed graph.
fuzz-cfg:
	$(GO) test ./internal/analysis/cfg -fuzz=FuzzCFG -fuzztime=30s

# Short fuzz pass over the purity effect-summary fixpoint: hostile call
# graphs (mutual recursion, method values, closures) must terminate
# without panicking.
fuzz-purity:
	$(GO) test ./internal/analysis/purity -fuzz=FuzzSummarize -fuzztime=30s

# Short fuzz pass over the event-driven scheduler: random valid bodies
# must schedule exactly as the cycle-stepped reference in
# internal/perfmodel/sched_ref_test.go does.
fuzz-sched:
	$(GO) test ./internal/perfmodel -run '^$$' -fuzz=FuzzScheduleEquivalence -fuzztime=30s

# Run the registered workloads through the orchestrator and store
# BENCH_ookami.json (warmup + repeats, CoV interference gate, bootstrap
# CIs; see docs/BENCHMARKS.md).
bench:
	$(GO) run ./cmd/ookami-bench run

# The perf gate: re-measure and diff against the committed baseline,
# failing on any workload that regresses beyond the noise-aware
# threshold with disjoint confidence intervals.
benchgate:
	$(GO) run ./cmd/ookami-bench run -q
	$(GO) run ./cmd/ookami-bench compare

# Re-record the committed benchmark baseline after an intentional
# performance change; the JSON diff is part of the PR under review.
benchrecord:
	$(GO) run ./cmd/ookami-bench record -update-baseline

# Trace smoke: run one NPB kernel with tracing on, then exercise both
# exporters through cmd/ookami-trace — the summary must aggregate and
# the conversion must round-trip (if ookami-trace reads the converted
# file, chrome://tracing will too). See docs/OBSERVABILITY.md.
trace-smoke:
	$(GO) run ./cmd/npbrun -bench EP -class S -threads 4 -model=false -trace trace_ep.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.json
	$(GO) run ./cmd/ookami-trace chrome -o trace_ep.chrome.json trace_ep.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.chrome.json > /dev/null

# Parallel-execution smoke: the parexec engine and sharded-runner test
# suites under the race detector (both assert goroutine-leak freedom
# via testutil.CheckGoroutineLeak), then a small race-built parallel
# bench sweep and a parallel figure generation diffed byte-for-byte
# against the engine-less serial output. See docs/BENCHMARKS.md.
par-smoke:
	$(GO) test -race -count=1 ./internal/parexec ./internal/bench ./internal/figures -run 'TestEngine|TestRunAllSharded|TestPool|TestMemo|TestDispatch'
	$(GO) run -race ./cmd/ookami-bench run -parallel 4 -filter 'loops/' -repeats 2 -q -out BENCH_par_smoke.json
	$(GO) run -race ./cmd/ookami-figures -parallel 4 -only fig1,fig2,expstudy > figs_par_smoke.txt
	$(GO) run ./cmd/ookami-figures -parallel -1 -only fig1,fig2,expstudy | cmp - figs_par_smoke.txt
	rm -f BENCH_par_smoke.json figs_par_smoke.txt

# Serve smoke: start the prediction API on an ephemeral port, hit
# every endpoint over real HTTP (predict, roofline, discovery, bench
# ingest+compare, rate-limit 429, healthz, metrics), then hold the
# cached predict path to >= 10k req/s with every response verified
# byte-identical to the direct library call. See docs/SERVE.md.
serve-smoke:
	$(GO) run ./cmd/ookami-serve smoke

# History smoke: the result-history loop end to end — two recorded runs
# (the second through the multi-process fleet runner), the history
# listing, and the trend analysis parsing both (two runs is below the
# default -min-points, so it reports "insufficient history" and exits
# 0). The workload set matches bench-smoke: cheap and breakage-sensing,
# not drift-sensing. See docs/BENCHMARKS.md.
history-smoke:
	$(GO) build -o ookami-bench.smoke ./cmd/ookami-bench
	./ookami-bench.smoke run -repeats 3 -filter 'loops/simple|vmath/exp' \
		-out BENCH_hist_smoke.json -history bench_history_smoke -commit smoke1 -q
	./ookami-bench.smoke run -repeats 3 -filter 'loops/simple|vmath/exp' -procs 2 \
		-out BENCH_hist_smoke.json -history bench_history_smoke -commit smoke2 -q
	./ookami-bench.smoke history -dir bench_history_smoke
	./ookami-bench.smoke trend -dir bench_history_smoke -threshold 3.0 -noise-mult 6
	rm -f ookami-bench.smoke BENCH_hist_smoke.json

# The raw `go test -bench` harness (figures/tables + kernel wall-clock).
gobench:
	$(GO) test -bench=. -benchmem

figures:
	$(GO) run ./cmd/ookami-figures -out results/
