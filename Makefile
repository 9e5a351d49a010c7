# fedora-go — common workflows.

GO ?= go

.PHONY: all build test test-short bench bench-check bench-spine bench-record vet fmt check loc experiments table1 clean

all: build test

# The gate, and the only one: static checks, every package's tests under
# the race detector in shuffled order (the durability, chaos, storage,
# wire, cluster and HA suites and both multi-process capstones are
# ordinary tests of their packages, so no -run regex can skip one), the
# shard engine, controller, server, trainer, main-ORAM and storage suites
# again on one proc (every controller routes its batches through the
# engine's worker loop, which runs inline there; the server and trainer
# suites cover a staged round's stage → kick → adopt order over HTTP and
# through the trainer; the main-ORAM and storage suites run the split
# read's one-worker case and the file's unlocked bucket reads),
# a short pass of the ten fuzzers (checkpoint, WAL, aggregator,
# sparse upload, row frame, controller snapshot container, coordinator
# WAL, the memory-encryption engine's authenticated open, and the Path
# ORAM access and the main ORAM's operations under snapshots and
# injected faults), and the bench/
# module's own vet and tests. ~8 min on 2 vCPUs.
check:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -race -shuffle=on ./...
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/shard/ ./internal/fedora/ ./internal/api/ ./internal/fl/ ./internal/raworam/ ./internal/storage/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/persist/
	$(GO) test -run=Fuzz -fuzz=FuzzReadWAL -fuzztime=10s ./internal/persist/
	$(GO) test -run=Fuzz -fuzz=FuzzAggregatorParse -fuzztime=10s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzSparseRoundTrip -fuzztime=10s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeRowFrame -fuzztime=10s ./internal/api/
	$(GO) test -run=Fuzz -fuzz=FuzzSplitSnapshot -fuzztime=10s ./internal/fedora/
	$(GO) test -run=Fuzz -fuzz=FuzzRoundLog -fuzztime=10s ./internal/cluster/
	$(GO) test -run=Fuzz -fuzz=FuzzOpen -fuzztime=10s ./internal/tee/
	$(GO) test -run=Fuzz -fuzz=FuzzPathORAM -fuzztime=10s ./internal/pathoram/
	$(GO) test -run=Fuzz -fuzz=FuzzRAWORAM -fuzztime=10s ./internal/raworam/
	$(MAKE) bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# One testing.B benchmark per paper table/figure + primitive microbenches.
bench:
	$(GO) test -bench=. -benchmem .

# bench/ is a module of its own (repro/bench), outside ./..., so a rename
# under internal/ can break the round-spine benchmark without any target
# above noticing: vet it and run its tests (a tiny-geometry smoke of all
# four workloads, ~2 s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full round-spine set (4 workloads × 3 segments + a traced one each,
# ~5 min) → bench/out/results.json; compare two of those with
# `cd bench && go run . compare a.json b.json`.
bench-spine:
	cd bench && $(GO) run .

# The full round-spine set kept at the repository root as BENCH_<PR>.json,
# so a change's numbers sit beside its parent's:
# `make bench-record PR=47`, then
# `cd bench && go run . compare ../BENCH_46.json ../BENCH_47.json`.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>"; exit 2; }
	$(MAKE) bench-spine
	cp bench/out/results.json BENCH_$(PR).json

# Non-test Go lines added, removed and net since BASE (default HEAD):
# `git diff --numstat` of the tracked tree, *_test.go and bench/ left
# out (a new file counts once `git add` tracks it). Not part of check.
loc:
	@git diff --numstat $(or $(BASE),HEAD) -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/' | \
		awk '{a += $$1; r += $$2} END {printf "non-test Go lines: +%d -%d, net %+d\n", a, r, a - r}'

# Regenerate every figure/ablation (writes results/).
experiments: build
	mkdir -p results
	$(GO) run ./cmd/fedora-bench -all -csv results/sweep.csv | tee results/perf.txt

# The FL accuracy study (Table 1). ~15 min; add QUICK=1 for a fast pass.
table1: build
	mkdir -p results
	$(GO) run ./cmd/fedora-train -table1 $(if $(QUICK),-quick,) | tee results/table1.txt

clean:
	rm -f trace.ftrc sweep.csv
