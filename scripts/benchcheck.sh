#!/bin/sh
# benchcheck: gate the data plane, then measure it.
#
# Order matters: blobvet, vet, the -race suites, and the WAL fuzz battery
# must pass before any number is worth reading — a racy dispatcher or
# a log format that breaks crash replay produces fast garbage. blobvet
# runs FIRST: it enforces the dispatch.go concurrency contract, the
# single WAL append path, virtual-time determinism, errors.Is sentinel
# discipline, and stripe-lock pairing (see internal/lint/README.md), and
# numbers measured on a tree that violates those contracts are worthless
# however fast. The race scope covers the packages the goroutine fan-out
# touches — the blob data plane, the sharded WAL lanes it appends to, the
# virtual-time substrate it folds costs into, plus the remaining
# concurrent packages (core, storage, kvstore) so the analyzers' static
# guarantees and the dynamic race detector cover the same tree, plus
# every front-end the conformance matrix registers (fstest, blobfs,
# posixfs, relaxedfs, mpiio, h5, adios, s3gw, sparksim) so the converged
# surface runs under the detector too, plus internal/mpi and the
# internal/workloads that drive it — mpiio's collective write hands ranks
# references to each other's buffers, so its ownership rule (nobody returns
# while a peer can still read) is a race-detector property — plus
# internal/bench, whose pinned virtual twins (TestVirtualTwinsPinned)
# drive pooled dispatch through blobfs and s3gw;
# -shuffle=on randomizes test order so accidental
# inter-test state dependencies cannot hide a regression. Each wal,
# blob, and fstest fuzz target then runs for a short fixed budget —
# FuzzReplayMerged covers lane interleavings, per-lane torn tails, and
# checkpoint-then-append resets on top of the single-stream battery, the
# blob-side FuzzRecoverParallel pits the parallel lane-decode recovery
# pipeline against the serial oracle on fuzzed workloads and tears, and
# fstest's FuzzFSOps replays randomized op scripts differentially against
# the posixfs reference over every registered backend — so framing,
# merge, replay, recovery-equivalence, or front-end-semantics regressions
# are caught here, not in a later crash.
#
# The -race suite includes the full seeded chaos battery (TestChaosBattery:
# 200 fault schedules of crash/tear/flap/transient-error under concurrent
# 2PC load) plus the SetDown flap race test, and the fuzz loop picks up the
# wal FaultMedium schedule fuzzer (FuzzFaultSchedule) alongside the replay
# batteries, so failure-domain regressions fail here before any number is
# measured.
#
# The freshness stress stage then reruns exactly those two tests twenty
# times at 1, 2 and 4 procs, once plain and once under -race (ROADMAP item
# 1): every stale read on record was a scheduler-dependent interleaving a
# single pass misses, and the bar is zero failures, not "rare". The same
# stage hammers the lane log: a lane append is the lane Log's append under
# its own mutex, and the MultiLog tests (concurrent single and batch appends
# on shared lanes, key order, batch adjacency) run twenty times raced.
#
# The nested benchmark/ module — invisible to the root `go test ./...` —
# then runs its own tests (every workload at -scale 0.01, the
# BENCHMARK.json drift test, the wrapper-transparency digests): it drives
# the data plane through InlineFanout twins and traced wrappers, so a
# change to blob, blobfs or a front-end can break it without tier-1
# noticing.
#
# scripts/examples.sh smoke-runs every example program so the documented
# entry points cannot rot unnoticed.
#
# Elasticity's crash-safety side is covered above: the -race suite includes
# the migration crash sweeps (a whole-cluster crash after every record a
# join or drain appends, Replication 1 to 3) and the chaos battery's
# membership actor, and the fuzz loop picks up FuzzRebalanceCrash with the
# other blob fuzz targets.
#
# Last, the one source of wall-clock numbers: two full sets of the
# BENCHMARK.json workloads, failing if any end-to-end metric's sets
# disagree by more than its bound. It runs LAST so a noisy-host verdict
# cannot mask an earlier failure. Simulated cost needs no stage of its own:
# the deterministic twins are pinned by tier-1 (TestVirtualTwinsPinned).
#
# Usage: scripts/benchcheck.sh
set -e
cd "$(dirname "$0")/.."
go run ./cmd/blobvet ./...
go vet ./...
go test -race -shuffle=on ./internal/blob/... ./internal/sim/... ./internal/cluster/... ./internal/wal/... ./internal/core/... ./internal/storage/... ./internal/kvstore/... \
	./internal/fstest/... ./internal/blobfs/... ./internal/fs/... ./internal/mpi/... ./internal/mpiio/... ./internal/workloads/... ./internal/h5/... ./internal/adios/... ./internal/s3gw/... ./internal/sparksim/... \
	./internal/bench/...
for pkg in ./internal/wal ./internal/blob ./internal/fstest; do
	for fz in $(go test -run '^$' -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
		go test -run '^$' -fuzz "^${fz}\$" -fuzztime 10s "$pkg"
	done
done
go test -timeout 60m -count=20 -cpu 1,2,4 -run 'TestChaosBattery|TestSetDownFlapRace' ./internal/blob
go test -race -timeout 60m -count=20 -cpu 1,2,4 -run 'TestChaosBattery|TestSetDownFlapRace' ./internal/blob
go test -race -count=20 -cpu 1,2,4 -run 'TestMultiLog' ./internal/wal
(cd benchmark && go test ./...)
scripts/examples.sh
bash benchmark/run.sh -repeat 2 -check
