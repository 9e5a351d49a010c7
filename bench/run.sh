#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's sources and runs it with the given arguments. Everything the
# toolchain writes — build cache, temporary files, telemetry — is kept
# under bench/out, so a run reads and writes only inside its checkout,
# and nothing is fetched: the module has no dependency outside the repo.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin out/.tmp
export GOCACHE="$PWD/out/.gocache" GOMODCACHE="$PWD/out/.gomodcache"
export XDG_CONFIG_HOME="$PWD/out/.config" TMPDIR="$PWD/out/.tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o out/bin/bench .
exec out/bin/bench "$@"
