#!/bin/sh
# benchcheck: gate the data plane, then record its perf trajectory.
#
# Order matters: blobvet, vet, the -race suites, and the WAL fuzz battery
# must pass before the numbers are worth recording — a racy dispatcher or
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
# surface runs under the detector too;
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
# recorded.
#
# The freshness stress stage then reruns exactly those two tests twenty
# times at 1, 2 and 4 procs, once plain and once under -race (ROADMAP item
# 1): every stale read on record was a scheduler-dependent interleaving a
# single pass misses, and the bar is zero failures, not "rare".
#
# The nested benchmark/ module — invisible to the root `go test ./...` —
# then runs its own tests (every workload at -scale 0.01, the
# BENCHMARK.json drift test, the wrapper-transparency digests): it drives
# the data plane through InlineFanout twins and traced wrappers, so a
# change to blob, blobfs or a front-end can break it without tier-1
# noticing.
#
# The hot-path, recovery, and faults micro-benchmarks then run with
# allocation accounting and the results (including the WAL lane-count
# sweeps) land in BENCH_hotpath.json, BENCH_recovery.json, and
# BENCH_faults.json, giving future PRs a perf trajectory to compare
# against. Four gates guard the committed numbers, each evaluated BEFORE
# its file is overwritten: the committed BENCH_hotpath.json is the
# allocation-regression baseline (write-path alloc_bytes_per_op /
# allocs_per_op must not grow), the parallel/serial write ns-per-op ratio
# must stay under a GOMAXPROCS-aware bound (bench.CheckWriteScaling), the
# parallel/serial crash-recovery ratio must stay under its own
# GOMAXPROCS-aware bound (bench.CheckRecoveryScaling) so the parallel
# lane-decode pipeline keeps beating — or at minimum never quietly
# regresses against — the single-threaded recovery oracle, and the
# degraded/healthy write cost ratio must stay under a deterministic
# virtual-cost bound (bench.CheckFaults) so losing a replica never makes
# the write path do pathological extra work.
#
# The frontends experiment then measures the converged claim end-to-end
# (IOR-style HPC pattern, sparksim shuffle, s3gw put/get) into
# BENCH_frontends.json, gated on the rename fastpath/copy virtual ratio
# (bench.CheckFrontends) before the file is overwritten, and
# scripts/examples.sh smoke-runs every example program so the documented
# entry points cannot rot unnoticed.
#
# The rebalance experiment measures what elasticity costs the foreground —
# p99 of a mixed read / 2PC-write workload during a live node join and
# drain vs quiesced — into BENCH_rebalance.json, gated on the
# during-migration/quiesced virtual p99 ratio (bench.CheckRebalance)
# before the file is overwritten. Its crash-safety side is covered above:
# the -race suite includes the migration crash sweeps (a whole-cluster
# crash after every record a join or drain appends, Replication 1 to 3)
# and the chaos battery's membership actor, and the fuzz loop picks up
# FuzzRebalanceCrash with the other blob fuzz targets.
#
# Usage: scripts/benchcheck.sh [hotpath-output-file] [recovery-output-file] [faults-output-file] [frontends-output-file] [rebalance-output-file]
set -e
cd "$(dirname "$0")/.."
out="${1:-BENCH_hotpath.json}"
rout="${2:-BENCH_recovery.json}"
fout="${3:-BENCH_faults.json}"
feout="${4:-BENCH_frontends.json}"
reout="${5:-BENCH_rebalance.json}"
go run ./cmd/blobvet ./...
go vet ./...
go test -race -shuffle=on ./internal/blob/... ./internal/sim/... ./internal/cluster/... ./internal/wal/... ./internal/core/... ./internal/storage/... ./internal/kvstore/... \
	./internal/fstest/... ./internal/blobfs/... ./internal/fs/... ./internal/mpiio/... ./internal/h5/... ./internal/adios/... ./internal/s3gw/... ./internal/sparksim/...
for pkg in ./internal/wal ./internal/blob ./internal/fstest; do
	for fz in $(go test -run '^$' -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
		go test -run '^$' -fuzz "^${fz}\$" -fuzztime 10s "$pkg"
	done
done
go test -timeout 60m -count=20 -cpu 1,2,4 -run 'TestChaosBattery|TestSetDownFlapRace' ./internal/blob
go test -race -timeout 60m -count=20 -cpu 1,2,4 -run 'TestChaosBattery|TestSetDownFlapRace' ./internal/blob
(cd benchmark && go test ./...)
scripts/examples.sh
go test -run '^$' -bench 'HotPath|Recover|Fault' -benchmem -benchtime=1s .
go run ./cmd/benchsuite -exp hotpath -hotpath-out "$out" -hotpath-baseline BENCH_hotpath.json
go run ./cmd/benchsuite -exp recovery -recovery-out "$rout"
go run ./cmd/benchsuite -exp faults -faults-out "$fout"
go run ./cmd/benchsuite -exp frontends -frontends-out "$feout"
go run ./cmd/benchsuite -exp rebalance -rebalance-out "$reout"
