# fedora-go — common workflows.

GO ?= go

.PHONY: all build test test-short bench bench-check bench-spine vet fmt check experiments table1 clean

all: build test

# The gate, and the only one: static checks, every package's tests under
# the race detector in shuffled order (the durability, chaos, storage,
# wire, cluster and HA suites and both multi-process capstones are
# ordinary tests of their packages, so no -run regex can skip one), the
# shard engine and controller suites again on one proc (every controller
# routes its batches through the engine's worker loop, which runs inline
# there), a short pass of the six format fuzzers (checkpoint, WAL,
# aggregator, sparse upload, row frame, controller envelope), and the
# bench/ module's own vet and tests. ~6 min on 2 vCPUs.
check:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -race -shuffle=on ./...
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/shard/ ./internal/fedora/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/persist/
	$(GO) test -run=Fuzz -fuzz=FuzzReadWAL -fuzztime=10s ./internal/persist/
	$(GO) test -run=Fuzz -fuzz=FuzzAggregatorParse -fuzztime=10s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzSparseRoundTrip -fuzztime=10s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeRowFrame -fuzztime=10s ./internal/api/
	$(GO) test -run=Fuzz -fuzz=FuzzSplitSnapshot -fuzztime=10s ./internal/fedora/
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
