#!/bin/sh
# lint: run the blobvet contract analyzers (plus go vet) without the
# full bench pipeline, and fail on any file gofmt would rewrite. This is
# the cheap pre-commit gate; benchcheck.sh runs the same blobvet stage
# before recording any number.
#
# Usage: scripts/lint.sh [packages...]   (default ./...)
set -e
cd "$(dirname "$0")/.."
pkgs="${@:-./...}"
go run ./cmd/blobvet $pkgs
go vet $pkgs
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l: these files need gofmt:" >&2
	echo "$unformatted" >&2
	exit 1
fi
