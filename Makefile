GO ?= go
FUZZTIME ?= 5s

.PHONY: check fmt vet build test race allocs bench bench-check bench-gate stress fuzz-smoke coverage differential combiner safety sampling scenarios scenarios-short experiments loc

check: fmt vet build race allocs fuzz-smoke sampling bench-check bench-gate

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation pins (the alloc_test.go files, every test named *Alloc*):
# exact object counts per call on the hot paths. Those files are
# `//go:build !race`, because the race detector's instrumentation allocates,
# so `race` never runs them; this suite does. A few seconds.
allocs:
	$(GO) test -run Alloc ./...

bench:
	$(GO) test -bench . -benchtime 0.5s -run xxx .

# The ROADMAP's size figure: non-blank, non-comment-only lines of non-test
# Go outside the benchmark. A simplicity PR quotes this number, before and
# after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l

# The repo's benchmark (bench/, its own module) must keep compiling and
# passing its own tests against this tree: an API break against the
# surface listed in bench/README.md fails here, not in the benchmark
# pipeline. About 8 s.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Allocation-regression gate: run the key hot-path benchmarks (pinned
# -cpu 1,4,8) and compare allocs/op against the committed BENCH_5.json —
# any increase fails. Counts are deterministic, so this is part of
# `make check`; timings are gated by the bench/ ledger (BENCHMARK.json),
# not here. Seeds the baseline when it is absent; re-record intentional
# changes with
#   go run ./cmd/benchgate -write
# About 1.5 min.
bench-gate:
	$(GO) run ./cmd/benchgate

# The suites below select tests by name convention, not by list: a new
# test joins its suite by carrying the suite's word in its name.

# Concurrency-stress suite (Stress*, Sharded*): N emitting goroutines
# racing install/uninstall/flush with exact tuple accounting, plus the
# sharded accumulator's exactness/ordering/drop-accounting suite — under
# the race detector, twice, to shake out interleavings.
stress:
	$(GO) test ./internal/agent ./internal/advice -race -count=2 -run 'Stress|Sharded'

# Replay the checked-in fuzz corpora, then give every fuzz target of the
# packages that decode untrusted bytes a short live burst. The targets are
# read off `go test -list`, so a new one joins by existing. FUZZTIME=2m
# fuzz-smoke for a deeper local run.
FUZZ_PKGS = ./internal/tuple ./internal/wire ./internal/baggage ./internal/itc

fuzz-smoke:
	$(GO) test $(FUZZ_PKGS) -run '^Fuzz'
	@set -e; for p in $(FUZZ_PKGS); do \
		for t in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			$(GO) test $$p -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); done; done

# Full-suite statement coverage, failing if the total drops below the
# floor recorded in coverage.baseline.
coverage:
	$(GO) test ./... -coverprofile=cover.out
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat coverage.baseline); \
	echo "total coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage dropped below the recorded baseline"; exit 1; }

# The ptbench scenario library at the reduced (<=64-host) sizing, under
# the race detector, plus the byte-identical report checks: two same-seed
# runs against each other, and the seed-1 report against the checked-in
# internal/scenario/testdata/short-seed1.json.
# Replay a failure with the printed `go run ./cmd/ptbench ...` command.
scenarios-short:
	$(GO) test ./internal/scenario -race -run 'Short|TestReportDeterminism'

# The full scenario library on thousand-host topologies — the ptbench
# acceptance run (~15 s of wall time on two cores) — whose seed-1 JSON
# report must be byte-identical to the checked-in
# internal/scenario/testdata/full-seed1.json. A change that means to move
# the report rewrites that file with the same ptbench command.
scenarios:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/ptbench -all -seed 1 -json "$$out"; \
	cmp "$$out" internal/scenario/testdata/full-seed1.json

# The paper's figures and tables at full size (~25 s), whose report must be
# byte-identical to the checked-in internal/experiments/testdata/full.txt.
# (The short sizing is pinned to quick.txt by TestPaperShort, in `test`.)
# A change that means to move a figure rewrites that file with the same
# ptbench command, and quick.txt with `-paper -short`.
experiments:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/ptbench -paper > "$$out"; \
	cmp "$$out" internal/experiments/testdata/full.txt

# The differential query-correctness sweeps (TestDifferential*: plain and
# budgeted) under the race detector. Each case runs in every topology —
# flat agent→frontend merge and combiner trees 1 and 3 mids wide — which
# must agree with the oracle and with flat byte-for-byte. Failures print
# the seed; replay with go test ./pivot -run '^TestDifferential$' -seed=<N>.
differential:
	PT_DIFF_CASES=500 $(GO) test ./pivot -race -run '^TestDifferential'

# The combiner-tier suite: partition/rendezvous unit tests, tree wiring,
# tenant fair-share control plane, combiner-kill chaos (TestCombiner*),
# and the differential sweeps at a reduced case count — all under -race.
combiner:
	$(GO) test ./internal/combiner ./internal/cluster ./internal/core -race
	$(GO) test ./pivot -race -count=2 -run '^TestCombiner'
	PT_DIFF_CASES=120 $(GO) test ./pivot -race -run '^TestDifferential'

# The request-level sampling suite (*Sampl*): the 300-case sampled
# differential sweep against the statistical oracle, rate-1.0
# byte-identity with the exact path, the error-vs-rate estimator sweep,
# the happened-before join decision-atomicity property tests, and the
# rate-clamp/AIMD controller units — all under the race detector. Failures print the
# seed; replay with go test ./pivot -run <Test> -seed=<N>.
sampling:
	$(GO) test ./pivot -race -run 'Sampl'
	$(GO) test ./internal/sampling -race

# The safety-valve chaos suite (TestSafety*): advice quarantine,
# frontend-kill lease expiry, budget exhaustion accounting, and the
# governance unit tests — repeated under the race detector to shake out
# ordering assumptions.
safety:
	$(GO) test ./pivot -race -count=2 -run '^TestSafety'
	$(GO) test ./internal/agent ./internal/advice ./internal/baggage ./internal/tracepoint -race -count=2
