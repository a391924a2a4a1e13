GO ?= go

# bench-json knobs: which benchmarks feed the perf-trajectory artifact and
# how long each runs. 1s gives stable ns/op; drop to e.g. 5x for a quick
# local look.
BENCHTIME ?= 1s
BENCH_JSON_PATTERN ?= 'BenchmarkExtractMemoryVsPaged|BenchmarkPageRankMemoryVsPaged|BenchmarkRWRMultiFused|BenchmarkRWRSetSweepVsNeighbors|BenchmarkPageRankSweepVsNeighbors|BenchmarkExtractTieredSkewed|BenchmarkKeyPathPagedCursor|BenchmarkPoolMiss|BenchmarkE1_GTreeBuild|BenchmarkPartition/Multilevel|BenchmarkGTreeBuildScale|BenchmarkE2_SceneKinds|BenchmarkE7_SubgraphMetrics'

.PHONY: all build vet lint test race check bench bench-json fmt fuzz-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Contract multichecker: the repo's own go/analysis suite (sweepalias,
# pinpair, sentinelerr, hotalloc). See cmd/gminevet and internal/lint.
lint:
	$(GO) run ./cmd/gminevet ./...

# Tier-1 gate.
test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet lint race

# Short randomized shake of the decoder/sweep/cursor entry points and the
# edge-list reader, which parse attacker-shaped bytes (CI runs the same
# five).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzSweepEdges -fuzztime 10s ./internal/gtree
	$(GO) test -run '^$$' -fuzz FuzzCursorRows -fuzztime 10s ./internal/gtree
	$(GO) test -run '^$$' -fuzz FuzzDecodeLeaf -fuzztime 10s ./internal/gtree
	$(GO) test -run '^$$' -fuzz FuzzOpenCSRSection -fuzztime 10s ./internal/gtree

bench:
	$(GO) test -bench . -benchmem -run xxx ./...

# Runs the key extraction/PageRank benchmarks (ns/op + allocs/op, memory
# vs paged vs tiered), the hierarchy-build
# benchmarks (ns/op, allocs/op, nodes/s) and navigate's two miss paths
# (scene SVG rendering, a leaf's metric report) and writes BENCH_extract.json
# for the CI artifact, so the perf trajectory of the hot paths gets
# recorded run over run.
bench-json:
	$(GO) test -run '^$$' -bench $(BENCH_JSON_PATTERN) -benchtime=$(BENCHTIME) -benchmem . > BENCH_extract.txt
	$(GO) run ./cmd/benchjson < BENCH_extract.txt > BENCH_extract.json
	@rm -f BENCH_extract.txt
	@echo wrote BENCH_extract.json

fmt:
	gofmt -l -w .
