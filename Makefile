# Development targets. `make check` is the full gate: vet, build, and the
# whole test suite under the race detector — the store-level concurrency and
# resilience tests (store_resilience_test.go) are only meaningful with -race.

GO ?= go

.PHONY: check fmt vet staticcheck build test race budget fanin lint-metrics chaos chaos-shard crash explain-smoke repro-smoke bench-e2e-check fuzz fuzz-store fuzz-wal fuzz-oracle fuzz-topk fuzz-valuetable fuzz-atomic bench bench-short bench-shapes bench-bytes loc

check: fmt vet staticcheck build race budget fanin lint-metrics chaos chaos-shard crash explain-smoke repro-smoke bench-e2e-check

# Formatting gate: fails, listing every file gofmt would rewrite (the
# bench/ module included).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is optional locally (it is not vendored; CI installs it with
# `go install honnef.co/go/tools/cmd/staticcheck@latest`). The target is a
# no-op with a notice when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation budget (allocations and bytes per cold conj, type2 and
# general query, for full lists and WithTopK(10)), what a one-video store
# query may allocate beyond its evaluation (traced, unsampled, and with a
# ?trace=1 attempt's collector: nothing unsampled) and that it
# allocates the same on a store of one video or of 64, what one
# cold GET /query of each MIX6 shape allocates through the server's handler
# and through a coordinator over four shard servers on loopback, what one
# Parse of each MIX6 text allocates (internal/htl), the resident bytes per shot of the picture systems a serving store builds
# and of the meta-data a store loaded from JSON keeps,
# the kernel's byte-identity golden, the three tests that hold the evaluation
# arena's reuse invisible to both engines, and the proof that a WithTopK(k)
# query ranks exactly as the full lists do, without -race: under the race
# detector sync.Pool drops puts on purpose, the budgets skip themselves and
# reuse is rarer.
budget:
	$(GO) test -run '^(TestColdShapeAllocBudget|TestStoreQueryOverheadBudget|TestSystemResidentBytes|TestVideoResidentBytes|TestVideoQueryCostIndependentOfStoreSize|TestColdRequestAllocBudget|TestFleetRequestAllocBudget|TestKernelGolden|TestArenaReuseIsInvisible|TestReferenceArenaReuseIsInvisible|TestMemoTablesImmutable|TestWithTopKMatchesFullRanking|TestParseAllocBudget)$$' -count=1 . ./internal/core/ ./internal/server/ ./internal/shard/ ./internal/htl/

# The prove-or-remove gate alone and verbose: every exported function or
# method of the module has a non-test caller, resolved by go/types, or an
# allowlist entry with its reason (fanin_test.go), and an entry kept as a test
# seam is named by some test of the module; a failure lists each name.
fanin:
	$(GO) test -run '^(TestExportedFuncsHaveCallers|TestFanInRuleSeesThroughNames)$$' -count=1 -v .

# Metrics-conventions lint: the store's registry and every Prometheus
# exposition the server and the shard coordinator serve must pass
# obs.LintExposition (counter/gauge/histogram naming, cumulative buckets, +Inf
# terminators, name charset), and both listeners must answer the same ops
# endpoint set (TestOpsSurface).
lint-metrics:
	$(GO) test -run '^TestMetricsConventions$$|^TestOpsSurface$$|^TestLintExposition' -count=1 ./ ./internal/obs/

# End-to-end server chaos test: ≥32 concurrent clients against htlserve's
# handler while faultinject injects build failures, panics and stalls.
# Run alone (not in parallel with other packages): fault plans are
# process-wide.
chaos:
	$(GO) test -race -run '^TestServerChaos$$' -count=1 -v ./internal/server/

# Multi-process scatter-gather chaos test: N shard server processes (one
# under fault injection, one killed outright) behind the coordinator, driven
# by 32 concurrent clients. Asserts no dropped responses, a breaker open on
# the dead shard, partials from the survivors, quorum refusal, and a merged
# ranking byte-identical to a single store while healthy.
chaos-shard:
	$(GO) test -race -run '^TestShardChaosMultiProcess$$' -count=1 -v ./internal/shard/

# Crash-injection harness for the durable store: re-execs the test binary as
# a child that kills itself (SIGKILL-equivalent exit) at chosen WAL byte
# offsets mid-commit, then recovers the directory in the parent and checks
# query results byte-for-byte against an uncrashed store. The in-process
# every-byte-prefix property test rides along.
crash:
	$(GO) test -race -run '^TestWALCrashKillAtOffset$$|^TestDurableCrashEveryBytePrefix$$' -count=1 -v .

# Explain smoke: `htlquery -explain` on the Fig. 2 until example must print a
# non-empty annotated plan tree (a panic or an empty tree fails the target).
explain-smoke:
	@out=$$($(GO) run ./cmd/htlquery -demo -explain "M1 until M2") || exit 1; \
	echo "$$out"; \
	echo "$$out" | grep -q '^until' || { echo "explain-smoke: no until node in output" >&2; exit 1; }; \
	echo "$$out" | grep -q 'visits=' || { echo "explain-smoke: no per-node stats in output" >&2; exit 1; }

# §4 smoke, through the binary that regenerates the paper's tables: Table 4,
# which fails unless the SQL baseline computes Casablanca's Query 1 as the
# direct engine does (§4.1's "identical"), and the direct-vs-SQL comparison of
# Tables 5–6 at small sizes (experiments.Compare fails the run when the two
# similarity lists differ); then the Casablanca example, which prints Table 4
# both ways.
repro-smoke:
	$(GO) run ./cmd/reprotables -table 4
	$(GO) run ./cmd/reprotables -sizes 200,1000 -table 5
	$(GO) run ./cmd/reprotables -sizes 200,1000 -table 6
	$(GO) run ./examples/casablanca

# The end-to-end benchmark harness is its own module (bench/, so that the root
# `go build ./... && go test ./...` do not see it), which also means an
# internal/... API change that stops it compiling passes every target above.
# This one vets and tests the harness, then runs one workload of it for real
# on the -quick corpus with one-second rounds — the shortest that still
# completes a unit — so that a harness that no longer builds, fails its oracle
# or sheds requests fails the gate. The second run drives the coordinator,
# whose /query document the harness decodes too; the third the store
# directly, the one workload with the write-ahead log, a checkpoint and
# recovery verification; the fourth the server against its result cache, the
# one workload whose per-video store queries hit it. Nothing under bench/ is
# written except the git-ignored bench/out/.
bench-e2e-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -quick -only serve_cold_mix -seconds 1
	bash bench/run.sh -quick -only shard4_cold_mix -seconds 1
	bash bench/run.sh -quick -only store_ingest_query -seconds 1
	bash bench/run.sh -quick -only serve_zipf -seconds 1

# Short parser fuzz session (FuzzParse: parse → print → re-parse is total).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/htl/

# Short store-format fuzz session (FuzzLoadStore: load never panics and
# load → save → load round-trips byte-identically).
fuzz-store:
	$(GO) test -run '^$$' -fuzz=FuzzLoadStore -fuzztime=30s .

# Short WAL-replay fuzz session (FuzzWALReplay: recovery over arbitrary log
# bytes never panics, accounts for every byte, and the committed prefix it
# reports re-replays identically).
fuzz-wal:
	$(GO) test -run '^$$' -fuzz=FuzzWALReplay -fuzztime=30s ./internal/wal/

# Short oracle fuzz session (FuzzOracle: on any seed, internal/core's
# similarity lists equal the reference evaluator's, and every similarity and
# value table built on the way validates).
fuzz-oracle:
	$(GO) test -run '^$$' -fuzz=FuzzOracle -fuzztime=30s ./internal/refeval/

# Short top-k fuzz session (FuzzTopK: on any per-video lists and k, the
# selection, fed from a map or from a slice, equals the full-sort oracle, and
# so does ranking each video's CopyTopK(k) cut).
fuzz-topk:
	$(GO) test -run '^$$' -fuzz=FuzzTopK -fuzztime=30s ./internal/core/

# Short value-table fuzz session (FuzzValueTable: on videos decoded from the
# fuzzer's bytes, ValueTable's linear builder equals the sort-based oracle it
# replaced, row for row and interval for interval).
fuzz-valuetable:
	$(GO) test -run '^$$' -fuzz=FuzzValueTable -fuzztime=30s ./internal/picture/

# Short atomic-program fuzz session (FuzzAtomicProgram: on any system and
# atomic formula, EvalAtomic's table and ScoreAtomicAt equal a naive scorer
# that walks the formula over the segments' meta-data, at every segment and
# evaluation).
fuzz-atomic:
	$(GO) test -run '^$$' -fuzz=FuzzAtomicProgram -fuzztime=30s ./internal/picture/

# Benchmarks plus BENCH_obs.json (per-engine query latency from the store's
# own metrics histograms), BENCH_perf.json (compilation/caching ns/op,
# B/op, allocs/op, and the warm-vs-cold repeated-query speedup), and the
# trace-propagation gate (always-on trace context within 5% of the warm
# repeated-query path).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	BENCH_OBS_OUT=BENCH_obs.json $(GO) test -run '^TestWriteBenchObs$$' -count=1 -v .
	BENCH_PERF_OUT=BENCH_perf.json $(GO) test -run '^TestWriteBenchPerf$$' -count=1 -v .
	BENCH_TRACE_GATE=1 $(GO) test -run '^TestTracePropagationOverhead$$' -count=1 -v .

# Fast allocation-aware bench smoke (CI): every benchmark once at reduced
# short-mode sizes, with allocs/op visible, plus the trace-propagation gate
# at a tolerance wide enough for noisy shared runners.
bench-short:
	$(GO) test -short -run '^$$' -bench=. -benchtime=1x -benchmem ./...
	BENCH_TRACE_GATE=1 BENCH_TRACE_TOLERANCE=0.5 $(GO) test -run '^TestTracePropagationOverhead$$' -count=1 -v .

# The per-shape table every kernel PR cites (EXPERIMENTS.md): ms, bytes and
# allocations per cold 64-video query of each MIX6 shape at the Store API,
# then per GET /query through the server's handler (one store query per
# video), cold and against a warm result cache, then per cold GET /query
# through a coordinator over four shard servers on loopback (the shards'
# bytes included); three runs each. Not part of `make check`.
bench-shapes:
	$(GO) test -run '^$$' -bench StoreColdShape -benchmem -benchtime 20x -count 3 .
	$(GO) test -run '^$$' -bench 'ColdRequest|WarmRequest' -benchmem -benchtime 20x -count 3 ./internal/server/
	$(GO) test -run '^$$' -bench FleetColdRequest -benchmem -benchtime 20x -count 3 ./internal/shard/

# Where one cold MIX6 cycle's bytes go (EXPERIMENTS.md): BenchmarkStoreColdCycle
# under the memory profiler, then the profile's allocation sites by bytes. The
# test binary and the profile stay in BYTES_DIR, outside the checkout, for any
# further `go tool pprof` view (-lines, -cum, -list). Not part of `make check`.
BYTES_DIR ?= $(or $(TMPDIR),/tmp)/htlvideo-bench-bytes
bench-bytes:
	mkdir -p $(BYTES_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkStoreColdCycle$$' -benchmem -benchtime 31x -memprofilerate 4096 \
		-memprofile $(BYTES_DIR)/cycle.mem -o $(BYTES_DIR)/htlvideo.test .
	$(GO) tool pprof -sample_index=alloc_space -unit MB -top $(BYTES_DIR)/htlvideo.test $(BYTES_DIR)/cycle.mem

# The number ROADMAP's design aim tracks: non-test Go lines of the root
# module (bench/ is its own module), in total and outside the algorithmic
# core, then one line per package of the core, then the root package, the
# packages outside the core that serve it (internal/obs with its
# sub-packages, internal/cache, the store's caches, internal/metadata, the
# meta-data and its one validator, and internal/wal) and each binary under
# cmd/. A simplicity PR reports it before and after.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
LOC_PKGS = core simlist interval htl picture relational sqlgen refeval
LOC_SERVING = obs shard server resilience cache metadata wal
LOC_CORE = ^\./internal/($(subst $() ,|,$(LOC_PKGS)))/
loc:
	@echo "non-test Go lines: $$($(LOC_FILES) | xargs cat | wc -l) total," \
		"$$($(LOC_FILES) | grep -Ev '$(LOC_CORE)' | xargs cat | wc -l) outside internal/{core,simlist,interval,htl,picture,relational,sqlgen,refeval}"
	@for p in $(LOC_PKGS); do \
		echo "  internal/$$p: $$($(LOC_FILES) | grep -E "^\./internal/$$p/" | xargs cat | wc -l)"; \
	done
	@echo "root package: $$($(LOC_FILES) | grep -E '^\./[^/]+\.go$$' | xargs cat | wc -l)"
	@for p in $(LOC_SERVING); do \
		echo "internal/$$p: $$($(LOC_FILES) | grep -E "^\./internal/$$p/" | xargs cat | wc -l)"; \
	done
	@for p in $$(ls cmd); do \
		echo "cmd/$$p: $$($(LOC_FILES) | grep -E "^\./cmd/$$p/" | xargs cat | wc -l)"; \
	done
