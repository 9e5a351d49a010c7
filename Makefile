# fedora-go — common workflows.

GO ?= go

.PHONY: all build test test-short bench bench-check bench-spine vet fmt check crash-test chaos-test storage-test cluster-test wire-test ha-test experiments table1 clean

all: build test

# CI gate: static checks + the race detector, in shuffled test order,
# over the concurrent layers (the FL worker pool, the fedora round
# pipeline with its two-phase stage/begin contract and background fetch
# pass, the sharded ORAM engine, the HTTP API server, the retrying HTTP
# client SDK, the cluster coordinator, and the wire upload plane with
# its secagg mask stream — Plan.Encode runs concurrently on the FL pool)
# and over the ORAM data path below them, whose
# per-ORAM scratch buffers, keyed HMAC state, union scratch and paged
# tables (a lookup moves the last-leaf memo) are single-goroutine by
# contract (tee, raworam, pathoram, bufferoram, stash, obliv, device,
# position, paged).
check:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -race -shuffle=on ./internal/fl/... ./internal/fedora/... ./internal/shard/... ./internal/api/... ./internal/client/... ./internal/cluster/... ./internal/wire/... ./internal/secagg/...
	$(GO) test -race ./internal/tee/... ./internal/raworam/... ./internal/pathoram/... ./internal/bufferoram/... ./internal/stash/... ./internal/obliv/... ./internal/device/... ./internal/position/... ./internal/paged/...

# Durability gate: kill-resume fingerprint identity, corrupt-checkpoint
# fallback, torn-WAL replay, every Snapshot/Restore round trip, and a
# short pass of the persist-format fuzzers.
crash-test:
	$(GO) test -count=1 -run 'Snapshot|Resume|Restore|WAL|Checkpoint|Model' \
		./internal/persist/... ./internal/fl/... ./internal/fedora/... \
		./internal/raworam/... ./internal/pathoram/... ./internal/bufferoram/... \
		./internal/device/... ./internal/position/... ./internal/stash/... ./internal/tee/...
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/persist/
	$(GO) test -run=Fuzz -fuzz=FuzzReadWAL -fuzztime=10s ./internal/persist/

# Chaos gate: the fault-injection engine, shard quarantine + recovery,
# overload shedding, and the capstone — a remote FL run over HTTP under
# a fault plan (transient SSD errors + bit-flip corruption) — all under
# the race detector.
chaos-test:
	$(GO) test -race -count=1 ./internal/fault/...
	$(GO) test -race -count=1 -run 'Chaos|Quarantine|Health|Overload|RetryAfter|Shed|Integrity' \
		./internal/shard/... ./internal/api/... ./internal/client/... ./internal/tee/... ./internal/fedora/...
	$(GO) test -race -count=1 -run Chaos .

# Storage gate: the file-backed device against the simulator (contents,
# accounting, snapshots, fsync policies, error paths) plus the
# cross-backend FL parity and kill-resume tests. Runs fine on tmpfs —
# O_DIRECT is requested opportunistically and falls back to buffered.
storage-test:
	$(GO) test -count=1 -run 'Storage|FileDevice' \
		./internal/storage/... ./internal/fedora/... ./internal/fl/...

# Wire gate: the gradient upload plane — codec round trips, pairwise
# masking + dropout unmasking, cross-codec model parity (local,
# in-process trainer, remote HTTP, cluster fan-out), the upload-codec
# server policy, and a short pass of the payload fuzzers. The wire and
# secagg packages' own suites run under -race -shuffle=on in `make
# check` (a strict superset of a plain -race pass here, so this gate
# does not repeat them); the cross-package tests below run under the
# race detector.
wire-test:
	$(GO) test -race -count=1 -run 'Wire|UploadCodec' \
		./internal/fl/... ./internal/api/... ./internal/client/... ./internal/cluster/...
	$(GO) test -run=Fuzz -fuzz=FuzzAggregatorParse -fuzztime=10s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzSparseRoundTrip -fuzztime=10s ./internal/wire/

# Cluster gate: the distributed shard-placement subsystem — placement
# validation and round routing, remote-trainer fingerprint parity and
# byte-identical checkpoint assembly over httptest members, node loss →
# degraded rounds → join-time shard migration, and the capstone: a real
# fedora-coordinator + 2 member fedora-server processes serving one
# row-space with single-process model parity and node-kill degradation.
# All under the race detector.
cluster-test:
	$(GO) test -race -count=1 ./internal/cluster/...

# High-availability gate: epoch fencing on the member API, SDK endpoint
# failover + deadline-capped backoff, the coordinator round WAL (raw
# frames, torn tails, replay parity), standby promotion on lease expiry,
# corrupt-checkpoint fallback, split-brain rejection of a stale primary,
# and the capstone: a real primary/standby coordinator pair over 2
# member processes with the primary SIGKILLed mid-round — the failed-over
# model must match an uninterrupted run bit for bit. All under the race
# detector.
ha-test:
	$(GO) test -race -count=1 -run 'Epoch|Failover|Backoff|RawWAL|HA|StalePrimary|Promotion|StandbyPromotes|ProbeDelay' \
		./internal/persist/... ./internal/api/... ./internal/client/... ./internal/cluster/...

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
