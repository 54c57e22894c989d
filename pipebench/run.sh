#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it:
#
#   bash pipebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every file the build and the run write
# goes under .bench_build/ in that directory: the Go build cache, the
# toolchain's config and temp dirs, the binary, the castore files and the
# span traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off

# The module is local-only; keep the toolchain from starting a telemetry
# process that would outlive the run.
go telemetry off >/dev/null 2>&1 || true
(cd "$root/pipebench" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
