#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache, temp
# files and the go command's own counter files included, so nothing is
# written outside the checkout) and runs it with the given arguments. Run
# from the repository root:
#
#	bash benchmark/run.sh --workload hpc-ckpt --seed 1 --seconds 20 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
commit=unknown
if head=$(git rev-parse HEAD 2>/dev/null); then
	commit=$head
	git diff --quiet HEAD 2>/dev/null || commit="$head+changes"
fi
XDG_CONFIG_HOME="$out/config" go build -C benchmark -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/blobbench" .
exec "$out/blobbench" "$@"
