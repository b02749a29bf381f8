GO ?= go

.PHONY: all build test race vet vet-metrics gofmt check bench bench-smoke profile difftest difftest-spill difftest-shuffle difftest-scan difftest-query difftest-compact fuzz-smoke stress e2e

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the full module: the cluster scheduler is the
# concurrency-heavy core, but the local executor, rule cache and
# pipeline caches are shared-state too.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Metric-catalogue gate: every engine.OpKind must have a registered
# engine_op_seconds{op=...} latency series (see docs/OBSERVABILITY.md).
vet-metrics:
	$(GO) run ./cmd/vetmetrics

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file in the tree.
gofmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# check is the pre-merge gate: nothing lands unless the module is
# gofmt-clean, builds, vets, tests and race-tests clean (see
# docs/TESTING.md).
check: gofmt build vet vet-metrics test race

# Differential correctness run: DIFFTEST_N seeded workloads, each
# executed on the oracle, the local executor and a real TCP cluster,
# plus the five metamorphic invariants (partition count, row order,
# compression, kill+restart, speculation). Reproduce a reported seed
# with: go test ./internal/difftest/ -run Differential -difftest.seed=<seed> -v
DIFFTEST_N ?= 25
difftest:
	$(GO) test ./internal/difftest/ -run Differential -v -difftest.n=$(DIFFTEST_N)

# Differential run under a memory budget small enough that every sort
# and aggregation takes the external (spill-to-disk) path — results
# must stay bitwise identical to the ungoverned oracle (see
# docs/MEMORY.md).
SPILL_BUDGET ?= 4096
difftest-spill:
	$(GO) test -race ./internal/difftest/ -run 'DifferentialSpill|Differential$$' -v -difftest.n=$(DIFFTEST_N) -difftest.membudget=$(SPILL_BUDGET)

# Shuffle-exchange differential run, race-checked: every seeded
# workload's shuffle materialization / join / aggregation plan is
# compared bitwise against PartitionByKey and the broadcast funnel,
# in-process and over a real TCP cluster (see docs/SHUFFLE.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run ShuffleDifferential -difftest.shuffle -difftest.seed=<seed> -v
difftest-shuffle:
	$(GO) test -race ./internal/difftest/ -run ShuffleDifferential -v -difftest.n=$(DIFFTEST_N)

# Segment-scan differential run, race-checked: every seeded workload is
# sealed into a persistent segment store and the pushdown scan (zone-map
# pruning + column projection) is held bitwise-equal to the full scan
# run through the engine's own Filter, the oracle, and a real TCP
# cluster reading segment files itself (see docs/STORAGE.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run ScanDifferential -difftest.scan -difftest.seed=<seed> -v
difftest-scan:
	$(GO) test -race ./internal/difftest/ -run ScanDifferential -v -difftest.n=$(DIFFTEST_N)

# Query-frontend differential run, race-checked: every seeded workload
# gets a generated SELECT statement whose compiled plan must be the
# very op tree a caller would hand-build (same OpDesc data, same stage
# fingerprint) and whose execution over sealed segments stays
# bitwise-equal to the oracle and the hand-built pipeline, plus an
# aggregate statement held row-for-row equal to the hand-built
# distributed plan (see docs/QUERY.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run QueryDifferential -difftest.query -difftest.seed=<seed> -v
difftest-query:
	$(GO) test -race ./internal/difftest/ -run QueryDifferential -v -difftest.n=$(DIFFTEST_N)

# Encoding/compaction differential run, race-checked: every seeded
# workload is sealed raw, dict/RLE-encoded and encoded-then-compacted;
# all three stores must scan bitwise-equal (raw == encoded per
# partition, raw == compacted concatenated) and each pushdown scan must
# match its oracle, in-process and over a real TCP cluster reading
# encoded segment files (see docs/STORAGE.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run CompactDifferential -difftest.encoding -difftest.seed=<seed> -v
difftest-compact:
	$(GO) test -race ./internal/difftest/ -run CompactDifferential -v -difftest.n=$(DIFFTEST_N)

# Ordering-bug gate: STRESS_N concurrent copies of the internal/cluster
# and internal/difftest suites, each pinned to GOMAXPROCS=1, so the
# scheduler produces interleavings a lightly loaded machine never does
# (a map push racing its owner's shuffle begin, a stage-end watcher
# running late). Each package's copies run together; every copy must
# pass. Logs of failing copies are printed; all logs stay in STRESS_DIR.
STRESS_N ?= 8
STRESS_DIR ?= .stress
stress:
	@mkdir -p $(STRESS_DIR)
	$(GO) test -c -o $(STRESS_DIR)/cluster.test ./internal/cluster
	$(GO) test -c -o $(STRESS_DIR)/difftest.test ./internal/difftest
	@dir=$$(cd $(STRESS_DIR) && pwd); failed=0; \
	for pkg in cluster difftest; do \
		pids=""; \
		for i in $$(seq $(STRESS_N)); do \
			(cd internal/$$pkg && GOMAXPROCS=1 $$dir/$$pkg.test >$$dir/$$pkg.$$i.log 2>&1) & \
			pids="$$pids $$!"; \
		done; \
		i=0; \
		for p in $$pids; do \
			i=$$((i+1)); \
			if ! wait $$p; then failed=$$((failed+1)); echo "--- stress: $$pkg copy $$i failed"; grep -E -A8 -- '--- FAIL|panic:' $$dir/$$pkg.$$i.log | head -40; fi; \
		done; \
		echo "stress: $$pkg x$(STRESS_N) at GOMAXPROCS=1 done"; \
	done; \
	test $$failed -eq 0 || { echo "stress: $$failed copies failed"; exit 1; }

# End-to-end benchmark (e2ebench/, docs/PERFORMANCE.md): one run per
# workload — Algorithm 1 on LIG locally, on SYN over a 2-executor TCP
# cluster, and the served-query mix — each printing its end-to-end and
# per-layer metrics. E2E_TRACE=1 runs the traced variant.
E2E_SEED ?= 1
E2E_SECONDS ?= 25
E2E_TRACE ?= 0
e2e:
	for w in lig-local syn-cluster serve-mixed; do \
		bash e2ebench/run.sh --workload $$w --seed $(E2E_SEED) --seconds $(E2E_SECONDS) --trace $(E2E_TRACE) || exit 1; \
	done

# Short fuzz pass over every fuzz target, seeded from the checked-in
# corpora under */testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/colcodec/ -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/colcodec/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/expr/ -run '^$$' -fuzz '^FuzzParseAndEval$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol/dbc/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz '^FuzzPromWriter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segstore/ -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segstore/ -run '^$$' -fuzz '^FuzzFooter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME)

# Codec, join-stage and cluster micro-benchmarks, then the wire,
# pipeline, spill, shuffle, scan and serve experiments, which refresh
# their sections of BENCH_engine.json (the writer merges, so none
# clobbers another's).
bench: build
	$(GO) test -run NONE -bench 'BenchmarkEncode|BenchmarkDecode' -benchtime 0.5s ./internal/colcodec/
	$(GO) test -run NONE -bench 'BenchmarkBroadcastJoinStage|BenchmarkRuleCacheParallel|BenchmarkEvalRuleParallel' -benchtime 0.5s ./internal/engine/
	$(GO) test -run NONE -bench 'BenchmarkFusedPipelineVec|BenchmarkBroadcastJoinVec|BenchmarkSortWithinCompiled' -benchtime 0.5s ./internal/engine/
	$(GO) test -run NONE -bench 'BenchmarkClusterStage' -benchtime 0.5s ./internal/cluster/
	$(GO) run ./cmd/benchmark -exp wire -wire-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp pipeline -pipeline-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp spill -spill-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp shuffle -shuffle-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp scan -scan-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp serve -serve-out BENCH_engine.json

# One-iteration pass over every benchmark in the module: catches
# bit-rotted benchmark code in CI without paying measurement time.
bench-smoke: build
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# CPU + heap profiles of the pipeline experiment; inspect
# with `go tool pprof cpu.prof` / `go tool pprof mem.prof` (see
# docs/PERFORMANCE.md).
profile: build
	$(GO) run ./cmd/benchmark -exp pipeline -cpuprofile cpu.prof -memprofile mem.prof
