# Standard verify loop for the Columba S reproduction.
#
#   make test           tier-1: build everything, run every test
#   make test-short     the fast tier: go test -short ./... (inner-loop sanity)
#   make race           the race detector across the whole module
#   make race-solver    quick race pass over the solver stack only
#   make fuzz-smoke     short fuzz runs (parallel-vs-sequential + cut validity + MPS parse + netlist parse)
#   make conformance    full randomized synthesis sweep (200 seeds, no race)
#   make docs-check     every internal package documents itself in a doc.go
#   make serve-check    build the daemon + httptest smoke of the HTTP API under -race
#   make loadtest-smoke short columbaload run against an in-process server (zero shed, well-formed report)
#   make loadtest       the full tail-latency run behind BENCH_serving.json (1000 requests)
#   make milp-check     MPS corpus differential matrix + round-trip + columbamilp CLI goldens
#   make bench-delta-smoke tiny cold-vs-warm delta run (verdict parity + counter identities)
#   make bench-delta    the full delta warm-start measurement behind BENCH_delta.json
#   make vet            go vet, and gofmt -l . must print no file
#   make verify         vet (with gofmt) + race + fuzz smoke + conformance + docs check + serve check + loadtest smoke + delta smoke + milp check (CI gate)
#   make bench-solver   the sequential-vs-parallel solver benchmark pair
#   make bench-warmstart warm vs cold pivot/wall numbers for EXPERIMENTS.md
#   make bench-kernel   LP-kernel benchmarks (warm path, chip256's one-shot LP, chip128-2's cold root) with -benchmem + the allocation gates and the hypersparse-solve exactness gate

GO ?= go

.PHONY: build test test-short vet race race-solver fuzz-smoke conformance docs-check serve-check loadtest-smoke loadtest milp-check bench-delta-smoke bench-delta verify bench-solver bench bench-warmstart bench-kernel

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The fast tier for inner-loop development: every package's -short
# subset (the randomized sweeps shrink, the measurement tests skip).
test-short: build
	$(GO) test -short ./...

# go vet, then a formatting gate: gofmt -l lists every file whose
# formatting differs from gofmt's, and any listed file fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l . lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

# The root package runs its randomized synthesis sweep in -short form
# here (25 seeds under the race detector); the full 200-seed sweep runs
# race-free in the conformance target below.
race:
	$(GO) test -race -short .
	$(GO) test -race ./cmd/... ./internal/... ./examples/...

race-solver:
	$(GO) test -race -count=1 ./internal/milp/... ./internal/lp/...

# One go test invocation can drive only one -fuzz target, so the four
# smoke runs are separate lines: the parallel-vs-sequential solver
# property at the root, the cut/presolve validity property (no reduction
# may exclude an integer-feasible point) in internal/milp, the MPS
# parser property (never panic, typed errors, write→parse→write is a
# byte fixpoint) in internal/mps, and the netlist parser property (never
# panic, typed errors, accepted input formats to text that parses again)
# in internal/netlist. The netlist line bounds minimization at 1 s: its
# Table 1 seeds run to several KB, and at the default 60 s minimizing
# the first inputs they spawn takes up both workers for the rest of the
# 15 s, so almost nothing gets fuzzed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMILPParallel -fuzztime 15s .
	$(GO) test -run '^$$' -fuzz FuzzCutValidity -fuzztime 15s ./internal/milp/
	$(GO) test -run '^$$' -fuzz FuzzParseMPS -fuzztime 15s ./internal/mps/
	$(GO) test -run '^$$' -fuzz FuzzParseNetlist -fuzztime 15s -fuzzminimizetime 1s ./internal/netlist/

# The randomized synthesis conformance property at full width: every one
# of the 200 generator seeds must either be rejected with a typed
# *core.SynthesisError or synthesize into a DRC-clean design. The
# TestSynthesisConformance prefix also pulls in the warm/cold,
# delta-warm and presolve agreement matrices (solver ablations must never change a
# verdict).
conformance:
	$(GO) test -run 'TestSynthesisConformance|TestNetlistRoundTrip|TestConformanceMostlySynthesizable' -count=1 .

# Four documentation gates:
#   1. every internal package carries its documentation in a doc.go whose
#      comment opens with the canonical "Package <name>" sentence, and no
#      other file duplicates the package comment;
#   2. no relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md
#      or docs/*.md dangles (external http(s) links are not checked);
#   3. every milp.SearchStats counter field is documented by name in
#      docs/metrics.md — an undocumented counter is how the metrics
#      contract silently rots;
#   4. the other direction: every counter row of docs/metrics.md of the
#      form | `milp_x` (`Field`) | (or its two-key `a` / `b` variant)
#      names SearchStats fields that exist and span keys that
#      internal/core/core.go emits — a row left behind by a deleted
#      counter fails here.
docs-check:
	@fail=0; \
	for d in internal/*/; do \
		p=$$(basename $$d); \
		if [ ! -f $$d/doc.go ]; then \
			echo "docs-check: $$d is missing doc.go"; fail=1; continue; \
		fi; \
		if ! grep -q "^// Package $$p " $$d/doc.go; then \
			echo "docs-check: $$d/doc.go lacks a '// Package $$p' comment"; fail=1; \
		fi; \
		dup=$$(grep -l "^// Package $$p " $$d*.go | grep -v doc.go || true); \
		if [ -n "$$dup" ]; then \
			echo "docs-check: package comment duplicated in $$dup"; fail=1; \
		fi; \
	done; \
	if [ ! -f docs/metrics.md ]; then echo "docs-check: docs/metrics.md missing"; fail=1; fi; \
	for f in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do \
		[ -f $$f ] || continue; \
		dir=$$(dirname $$f); \
		for link in $$(grep -o '](\([^)#]*\))' $$f | sed 's/^](//;s/)$$//' | grep -v '^[a-z][a-z]*:' || true); do \
			if [ ! -e "$$dir/$$link" ]; then \
				echo "docs-check: $$f links to missing $$link"; fail=1; \
			fi; \
		done; \
	done; \
	fields=$$(awk '/^type SearchStats struct/,/^}/' internal/milp/stats.go | \
		grep -o '^	[A-Z][A-Za-z0-9]*' | tr -d '\t'); \
	for field in $$fields; do \
		if ! grep -q "$$field" docs/metrics.md; then \
			echo "docs-check: SearchStats.$$field is not documented in docs/metrics.md"; fail=1; \
		fi; \
	done; \
	rows=$$(grep -o '^| `milp_[a-z0-9_]*`\( / `milp_[a-z0-9_]*`\)* (`[A-Za-z0-9]*`\( / `[A-Za-z0-9]*`\)*) |' \
		docs/metrics.md | tr -d ' |'); \
	if [ -z "$$rows" ]; then echo "docs-check: docs/metrics.md has no counter rows"; fail=1; fi; \
	for row in $$rows; do \
		for key in $$(echo "$$row" | sed 's/(.*//' | grep -o 'milp_[a-z0-9_]*'); do \
			if ! grep -q "\"$$key\"" internal/core/core.go; then \
				echo "docs-check: docs/metrics.md documents $$key, which internal/core/core.go never emits"; fail=1; \
			fi; \
		done; \
		for field in $$(echo "$$row" | sed 's/^[^(]*(//' | grep -o '[A-Z][A-Za-z0-9]*'); do \
			if ! echo "$$fields" | grep -qx "$$field"; then \
				echo "docs-check: docs/metrics.md documents SearchStats.$$field, which does not exist"; fail=1; \
			fi; \
		done; \
	done; \
	exit $$fail

# The synthesis-service gate: both binaries must build and the httptest
# suite (pool fan-in, mid-solve cancellation, cache hits, drain) must
# pass with the race detector on.
serve-check:
	$(GO) build ./cmd/columbasd ./cmd/columbas
	$(GO) test -race -count=1 ./internal/server/...

# The load-harness gate: columbaload must build and a short mixed run
# against an in-process server must settle every request with zero shed
# (the load sits far below capacity) and produce a well-formed
# columbas-load/v1 report.
loadtest-smoke:
	$(GO) build ./cmd/columbaload
	$(GO) test -race -count=1 -run TestLoadSmoke ./internal/bench/

# The full tail-latency run: 1000 concurrent mixed hit/miss/cancel
# requests against an in-process server. The report is the
# BENCH_serving.json artifact quoted in EXPERIMENTS.md.
loadtest:
	$(GO) run ./cmd/columbaload -n 1000 -c 64 -o BENCH_serving.json

# The general-MILP ingestion gate: the corpus differential matrix (every
# instance keeps its golden status/objective across presolve × cuts),
# the write→parse→write round-trip, and the columbamilp CLI's
# golden/error-contract tests.
milp-check:
	$(GO) build ./cmd/columbamilp
	$(GO) test -count=1 ./internal/mps/
	$(GO) test -count=1 ./cmd/columbamilp/

# The delta warm-start gate: a tiny edit chain and weight sweep solved
# cold and delta-warm must agree on every verdict and respect the
# milp_delta_* counter identities (docs/metrics.md).
bench-delta-smoke:
	$(GO) build ./cmd/columbadelta
	$(GO) test -count=1 -run TestDeltaSmoke ./internal/bench/

# The full delta measurement: the chip9 case through a 10-step
# single-unit-edit chain and a 3x3 (alpha, beta) weight grid, each
# instance solved cold (-no-delta) and delta-warm. The report is the
# BENCH_delta.json artifact quoted in EXPERIMENTS.md ("Incremental
# re-synthesis").
bench-delta:
	$(GO) run ./cmd/columbadelta -o BENCH_delta.json

verify: vet race fuzz-smoke conformance docs-check serve-check loadtest-smoke bench-delta-smoke bench-kernel milp-check

bench-solver:
	$(GO) test -run '^$$' -bench 'BenchmarkSolve(Sequential|Parallel)$$' -benchtime 3x -count=1 .

# Warm-started vs cold branch-and-bound on the reference cases; the
# source of the numbers quoted in EXPERIMENTS.md.
bench-warmstart:
	$(GO) test -run '^$$' -bench BenchmarkWarmstart -benchtime 3x -count=1 .

# The LP-kernel gate: the steady-state warm path must stay at exactly
# 0 allocs/op (TestSolveFromSteadyStateAllocs fails otherwise), a
# repeated cold solve must allocate only the Basis snapshot it returns
# (TestColdSolveAllocs), and every hypersparse FTRAN, BTRAN and pivot
# row must equal the dense solve bit for bit
# (TestHypersparseSolvesMatchDense); then the kernel benchmarks report
# ns/op and allocs/op for eyeballing: the two branch-and-bound
# warm-path benchmarks, chip256's round-2 guided LP
# through the one-shot Solve path with its pivots and refactorizations,
# and chip128-2's round-1 root through the cold SolveFrom(nil) path that
# branch and bound takes, with its pivots and phase-1 rows.
bench-kernel:
	$(GO) test -run 'TestSolveFromSteadyStateAllocs|TestColdSolveAllocs|TestHypersparseSolvesMatchDense' -count=1 ./internal/lp/
	$(GO) test -run '^$$' -bench 'BenchmarkSolveFrom' -benchmem -count=1 ./internal/lp/
	$(GO) test -run '^$$' -bench 'BenchmarkSolve(OneShot|ColdRoot)' -benchmem -count=1 ./internal/layout/

bench:
	$(GO) test -bench . -benchmem .
