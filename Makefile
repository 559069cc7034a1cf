GO ?= go

.PHONY: build test shorttest racetest vet lint perfbenchcheck bench bench-throughput benchbaseline benchcmp docscheck metricscheck fuzzsmoke crashtest

# The hot-path benchmarks benchcmp tracks, and where their runs live.
# The metrics pair guards the observability overhead: per-sample updates
# must stay allocation-free and a full /metrics scrape O(1)-alloc.
BENCH_PATTERN := BenchmarkSimulatorThroughput|BenchmarkGangCyclesPerSec|BenchmarkSingleCoreSim|BenchmarkMetricsUpdate|BenchmarkMetricsScrape
BENCH_BASELINE := bench/baseline.txt
BENCH_CURRENT := bench/current.txt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

shorttest:
	$(GO) test -short ./...

# Race-checks the campaign scheduler, the daemon's submit/cancel/SSE
# churn and the cluster coordinator/worker concurrency (mirrors the CI
# race job, which runs all of these on every push).
racetest:
	$(GO) test -race -short ./...

# Fuzz smoke: run each native fuzz target briefly (the seed corpora are
# also exercised as plain tests on every `make test`). Mirrors the CI
# fuzz job.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzReadSpec -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz FuzzGangGrouping -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzScenarioBinary -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzScenarioJSONL -fuzztime 10s ./internal/trace

# Crash matrix: build the real mflushd with fault injection compiled in
# (-tags faultpoint), SIGKILL it at each WAL/lease faultpoint mid-
# campaign, restart on the same state directory, and require the resumed
# run to converge byte-identically. Also unit-tests the faultpoint
# package itself, which is a no-op without the tag.
crashtest:
	$(GO) test -tags faultpoint ./internal/faultpoint
	$(GO) test -tags faultpoint -count=1 ./internal/crashtest

vet:
	$(GO) vet ./...

# Project lint: the five custom analyzers (determinism, hotpath,
# keyhash, lockorder, errwrap) plus the //mflush: annotation self-check,
# with stock `go vet` folded in — so this is a superset of `make vet`
# and the one lint entry point CI runs. See ARCHITECTURE.md "Static
# analysis" for what each analyzer enforces.
lint:
	$(GO) run ./cmd/mflushvet ./...

# The benchmark harness (perfbench/, run by `bash perfbench/run.sh`) is a
# Go module of its own, so `go test ./...` at the root never reaches its
# stats, span and host-speed tests. Mirrors the CI perfbench job.
perfbenchcheck:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Documentation checks: markdown links in README/CAMPAIGNS/ARCHITECTURE/
# API resolve, and every exported identifier in internal/server and
# internal/campaign has a doc comment (mirrors the CI docs job).
docscheck:
	$(GO) test ./internal/docs/

# Metrics naming and documentation lint: every metric any binary
# registers is strict snake_case with the mflush_ prefix and appears in
# API.md's Observability tables (and vice versa). Also part of
# docscheck; this target runs just the metric lint.
metricscheck:
	$(GO) test -run TestMetricNamesConform ./internal/docs/

# Full evaluation benchmarks: every figure's headline metric plus raw
# simulator throughput.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Just the simulator speed benchmarks (the PERFORMANCE numbers in
# README.md).
bench-throughput:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 5x .

# Re-record the committed hot-path baseline that benchcmp diffs against.
# Run it when a PR intentionally moves simulator performance.
benchbaseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 3x -count 6 . | tee $(BENCH_BASELINE)

# Compare the current hot path against the committed baseline. A CI job
# runs this as a non-blocking report, so the cycle-loop cost of any
# refactor (like the Session layer) is visible on every PR. benchstat
# renders a statistical comparison when installed; without it the two
# raw runs are printed side by side (absolute numbers are machine-
# dependent — compare deltas, not values, unless the baseline was
# recorded on the same machine).
benchcmp:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 3x -count 6 . | tee $(BENCH_CURRENT)
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BASELINE) $(BENCH_CURRENT); \
	else \
		echo "== benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest)"; \
		echo "== raw baseline ($(BENCH_BASELINE)):"; cat $(BENCH_BASELINE); \
		echo "== raw current ($(BENCH_CURRENT)):"; cat $(BENCH_CURRENT); \
	fi
