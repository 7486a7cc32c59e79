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
# inter-test state dependencies cannot hide a regression. Every root
# bench_test.go benchmark then runs once (-benchtime 1x), so its b.Fatal
# checks execute, not just compile. Each wal,
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
# 2PC load) plus the SetDown flap race test, and the fuzz loop runs every
# wal fuzzer (the replay batteries, the raw-bytes decoder against its
# copying reference, the checksum combine), so failure-domain regressions
# fail here before any number is measured.
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
go test -run '^$' -bench . -benchtime 1x .
for pkg in ./internal/wal ./internal/blob ./internal/fstest; do
	for fz in $(go test -run '^$' -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
		go test -run '^$' -fuzz "^${fz}\$" -fuzztime 10s "$pkg"
	done
done
go test -timeout 60m -count=20 -cpu 1,2,4 -run 'TestChaosBattery|TestSetDownFlapRace' ./internal/blob
go test -race -timeout 60m -count=20 -cpu 1,2,4 -run 'TestChaosBattery|TestSetDownFlapRace' ./internal/blob
# Lane appends race under their own mutexes; a lane's checkpoint job relinks its retired buffers (whole ones, and slabs its
# batch still fills at least half) while sibling lanes recycle into the shared free list.
# A decoder reading a Buffer yields each vectored record's payload as the view its append stored.
go test -race -count=20 -cpu 1,2,4 -run 'TestMultiLog|TestBufferRelinksRetiredPayload|TestDecoderYieldsStoredViews' ./internal/wal
# The one migration test whose outcome depends on interleaving, and the observer it drives from live appends.
# The op events the tests' reference model is built from: each op ends with one EventOp after its appends, its chunk
# stamps are what the chunks hold, and a refused write reports its error and no stamp. A cold restart from the lanes alone,
# with no debt table, must find the replica a degraded write left behind.
# A drained node is reset only once it holds nothing: the drain tests keep its only copy and its open intent until then,
# and its retired log backing is recycled for the next join to reuse.
# The reconcile plan folds each chunk stripe on its own pool job: after every op of a seeded history (strays, faulted
# appends, down, crashed and removed nodes) it must list exactly the moves the sort-then-probe formulation lists.
go test -race -count=10 -cpu 1,2,4 -run 'TestMigrationUnderLiveTraffic|TestObserveSeesEveryAppend|TestErrorPathsJoinFanAndCharge|TestColdRestartRederivesDebt|TestDrainKeepsOnlyCopy|TestRemoveServerResetsWAL|TestDrainRecyclesItsLog|TestChunkPlanMatchesReference' ./internal/blob
go test -run '^$' -bench BenchmarkMigrationPlan -benchtime 1x ./internal/blob
# Descriptor races. An op latches its key, then looks the descriptor up, so it acts only on what is there while it holds
# the latch: ops racing a delete, a create or a handover, and a Scan racing creates and deletes. A descriptor's highest
# version wins, a tombstone like any copy: a torn delete, and a torn size change with the replica soft-down or crashed.
go test -race -count=10 -cpu 1,2,4 -run 'TestOpsOnDeletedBlobSeeNotFound|TestOpsRacingCreate|TestWriteLatchedAcrossHandoverLogsOnNewPrimary|TestWriteRacingDeleteAfterHandover|TestScanUnderConcurrentCreateDelete|TestVersionsNeverGoBackwards|TestTornSizeChangeReplicaDown' ./internal/blob
# Repair debt is one in-memory table on the store, in no log: a crash of the holder of a chunk's newest copy takes none of it
# along, and while a crash-wiped server hides a chunk's maximum, a replica the table names behind neither serves nor takes a
# write. A crashed descriptor primary answers unavailable, not not-found.
go test -race -count=10 -cpu 1,2,4 -run 'TestHolderCrashAfterFaultedRepair|TestHolderCrashBeforeRejoin|TestTornDegradedWriteDoesNotBlockChunk|TestStrayHolderCrashKeepsDebt|TestCrashedDescriptorPrimaryIsUnavailable' ./internal/blob
# Recovery reads the lanes in place: after a merge stopped by a torn lane, every lane's in-flight decode must finish before resync appends.
go test -race -count=10 -cpu 1,2,4 -run TestRecoverTornLaneThenResync ./internal/blob
# A chunk entry's bytes are a view of the payload its own server's log lane stored, on a 64-byte boundary, after every path that writes one,
# Recover's replay included, and a checkpoint relinks a whole-chunk buffer and a slab its lane still fills at least half instead
# of copying them; blob.copy.bytes counts what it copies.
# A checkpoint plans its servers in parallel and each lane job re-logs its lane in one batch: the records it streams must not
# depend on that schedule, and a warm one allocates the same few times at any store size, as does a membership change's plan
# (TestCheckpointAllocsFlat skips itself under -race, so the two allocation tests also run plain).
go test -race -count=10 -cpu 1,2,4 -run 'TestChunkBytesAreOwnLog|TestCopyBytesCounted|TestCheckpointRecordsPinned|TestCheckpointAllocsFlat|TestChunkPlanAllocsFlat' ./internal/blob
go test -count=20 -run 'TestCheckpointAllocsFlat|TestChunkPlanAllocsFlat' ./internal/blob
# The gateway's pooled buffers pass between concurrent requests; no body may show another request's bytes. A plain GET is one
# ReadBlob, so its body is one version of the object, and a PUT racing a DELETE still happened.
go test -race -count=10 -cpu 1,2,4 -run 'TestPooledBuffersNeverLeakBytes|TestStoreCallsPerRequest|TestGetReadsWholeObject|TestPutRacingDelete|TestGetIsOneVersion' ./internal/s3gw
(cd benchmark && go test ./...)
scripts/examples.sh
bash benchmark/run.sh -repeat 2 -check
