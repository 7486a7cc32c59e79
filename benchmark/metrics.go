package main

import (
	"encoding/json"
	"io"
)

// This file is the benchmark's declaration of what it reports. The drift
// test holds it equal to BENCHMARK.json, name for name.

// endToEndMetric is a number a user of the system would see. Every
// workload reports every one of them.
type endToEndMetric struct {
	name, unit, better string
	bound              float64
	meaning            string
}

var endToEndMetrics = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25, "median wall of one set-up: new cluster and store, preload, warm-up pass, two CheckpointAll"},
	{"write_mbps", "MB/s", "higher", 0.25, "user bytes written / wall of the phase that wrote them, the parked CheckpointAll included on hpc-ckpt"},
	{"read_mbps", "MB/s", "higher", 0.25, "user bytes read / wall of the phase that read them"},
	{"ops_per_s", "1/s", "higher", 0.25, "completed user-facing calls / foreground wall (fault-drill: degraded sub-phase only)"},
	{"read_p50_us", "us", "lower", 0.25, "median wall of the workload's reading call: ReadAtAll, Engine.Run, GET, ReadBlob"},
	{"write_p50_us", "us", "lower", 0.25, "median wall of the workload's writing call: WriteAtAll+Sync, output turnover + Engine.Run, PUT, WriteBlob"},
	{"maint_s", "s", "lower", 0.25, "mean wall per slice of control-plane work done with the foreground parked: CheckpointAll, and on fault-drill rejoin drain, Recover, RemoveServer, AddServer"},
	{"sim_s", "s", "lower", 0.1, "virtual makespan of one slice's script, the paper's own quantity"},
	{"write_amp", "B/B", "lower", 0.02, "log bytes appended between checkpoints / user bytes written"},
	{"peak_rss_mb", "MB", "lower", 0.1, "VmHWM at exit"},
}

// perLayerMetric is a number of one layer, read from the traced run, a
// direct probe or a counter. moves says which end-to-end metric on which
// workload it should move, written down before measuring.
type perLayerMetric struct {
	name, unit, better string
	layer              string
	moves              string
}

var blobPrimitives = []string{"read", "write", "create", "delete", "truncate", "size", "scan", "rename"}

// primitiveMoves names, per blob primitive, the workload that issues it
// most.
var primitiveMoves = map[string]string{
	"read":     "read_mbps@spark-scan",
	"write":    "write_mbps@hpc-ckpt write_p50_us@s3-smallobj",
	"create":   "write_p50_us@s3-smallobj",
	"delete":   "ops_per_s@s3-smallobj",
	"truncate": "write_p50_us@s3-smallobj",
	"size":     "read_p50_us@s3-smallobj",
	"scan":     "read_p50_us@spark-scan write_p50_us@spark-scan",
	"rename":   "read_p50_us@spark-scan",
}

var perLayerMetrics = buildPerLayer()

func buildPerLayer() []perLayerMetric {
	m := []perLayerMetric{
		{"mpiio.self_share", "ratio", "lower", "mpiio", "write_mbps@hpc-ckpt read_mbps@hpc-ckpt"},
		{"mpiio.fs_calls_per_call", "count", "lower", "mpiio", "write_mbps@hpc-ckpt"},
		{"blobfs.self_share", "ratio", "lower", "blobfs", "read_p50_us@spark-scan"},
		{"blobfs.blob_calls_per_fs_call", "count", "lower", "blobfs", "read_p50_us@spark-scan"},
		{"sparksim.self_share", "ratio", "lower", "sparksim", "read_p50_us@spark-scan"},
		{"sparksim.job_p50_ms", "ms", "lower", "sparksim", "read_p50_us@spark-scan"},
		{"sparksim.turnover_p50_us", "us", "lower", "sparksim", "write_p50_us@spark-scan"},
		{"s3gw.self_us", "us", "lower", "s3gw", "read_p50_us@s3-smallobj write_p50_us@s3-smallobj"},
		{"s3gw.blob_calls_per_req", "count", "lower", "s3gw", "read_p50_us@s3-smallobj write_p50_us@s3-smallobj"},
		{"proc.allocs_per_op", "count", "lower", "proc", "peak_rss_mb@s3-smallobj ops_per_s@s3-smallobj"},
		{"proc.alloc_bytes_per_user_byte", "B/B", "lower", "proc", "peak_rss_mb@hpc-ckpt write_mbps@hpc-ckpt"},
		{"proc.gc_pause_ms", "ms", "lower", "proc", "ops_per_s@s3-smallobj"},
		{"blob.share", "ratio", "lower", "blob", "write_mbps@hpc-ckpt read_mbps@spark-scan"},
	}
	for _, p := range blobPrimitives {
		m = append(m,
			perLayerMetric{"blob." + p + ".calls", "count", "lower", "blob", primitiveMoves[p]},
			perLayerMetric{"blob." + p + ".p50_us", "us", "lower", "blob", primitiveMoves[p]})
	}
	return append(m, []perLayerMetric{
		{"blob.read.p99_us", "us", "lower", "blob", "read_mbps@hpc-ckpt"},
		{"blob.write.p99_us", "us", "lower", "blob", "write_mbps@hpc-ckpt"},

		{"blob.checkpoint.s", "s", "lower", "blob", "maint_s@hpc-ckpt write_mbps@hpc-ckpt"},
		{"blob.checkpoint.mbps", "MB/s", "higher", "blob", "maint_s@hpc-ckpt"},
		{"blob.checkpoint.stall_share", "ratio", "lower", "blob", "write_mbps@hpc-ckpt"},
		{"blob.recover.s", "s", "lower", "blob", "maint_s@fault-drill"},
		{"blob.recover.mbps", "MB/s", "higher", "blob", "maint_s@fault-drill"},
		{"blob.repair.s", "s", "lower", "blob", "maint_s@fault-drill"},
		{"blob.repair.bytes", "B", "lower", "blob", "maint_s@fault-drill"},
		{"blob.removeserver.s", "s", "lower", "blob", "maint_s@fault-drill"},
		{"blob.addserver.s", "s", "lower", "blob", "maint_s@fault-drill"},
		{"blob.degraded_over_healthy", "ratio", "higher", "blob", "ops_per_s@fault-drill"},
		{"blob.write.degraded", "count", "lower", "blob", "ops_per_s@fault-drill"},
		{"blob.write.refused", "count", "lower", "blob", "ops_per_s@fault-drill"},
		{"blob.write.refused_predicted", "count", "lower", "blob", "ops_per_s@fault-drill"},
		{"blob.fault.retry", "count", "lower", "blob", "ops_per_s@fault-drill"},
		{"blob.migrate.live.s", "s", "lower", "blob", "maint_s@fault-drill"},
		{"blob.migrate.live.fg_p50_ratio", "ratio", "lower", "blob", "read_p50_us@fault-drill"},
		{"blob.migrate.live.fg_p99_ratio", "ratio", "lower", "blob", "read_p50_us@fault-drill"},
		{"blob.migrate.live.failed", "count", "lower", "blob", "ops_per_s@fault-drill"},
		{"blob.wal_records_per_write", "count", "lower", "blob", "write_amp@hpc-ckpt write_amp@s3-smallobj"},
		{"blob.snapshot_bytes_per_user_byte", "B/B", "lower", "blob", "peak_rss_mb@hpc-ckpt maint_s@hpc-ckpt"},
		{"blob.write.floor_x", "ratio", "lower", "blob", "write_mbps@hpc-ckpt"},
		{"blob.read.floor_x", "ratio", "lower", "blob", "read_mbps@spark-scan"},

		{"dispatch.pooled_over_inline.read", "ratio", "lower", "dispatch", "read_mbps@spark-scan read_mbps@hpc-ckpt"},
		{"dispatch.pooled_over_inline.write", "ratio", "lower", "dispatch", "write_mbps@hpc-ckpt"},
		{"dispatch.scaling.write", "ratio", "higher", "dispatch", "write_mbps@hpc-ckpt"},

		{"wal.append.mbps.chunk", "MB/s", "higher", "wal", "write_mbps@hpc-ckpt"},
		{"wal.append.ns_per_rec.small", "ns", "lower", "wal", "write_p50_us@s3-smallobj"},
		{"wal.append.floor_x", "ratio", "lower", "wal", "write_mbps@hpc-ckpt"},
		{"wal.group.recs_per_write", "count", "higher", "wal", "write_mbps@hpc-ckpt"},
		{"wal.lanes1_over_lanes16", "ratio", "lower", "wal", "write_mbps@hpc-ckpt"},
		{"wal.replay.mbps", "MB/s", "higher", "wal", "maint_s@fault-drill"},

		{"chash.locate.ns", "ns", "lower", "chash", "read_p50_us@s3-smallobj maint_s@fault-drill"},
		{"chash.hash.ns", "ns", "lower", "chash", "read_p50_us@s3-smallobj"},

		{"cluster.charge.ns", "ns", "lower", "cluster", "read_p50_us@s3-smallobj write_p50_us@s3-smallobj"},
		{"sim.disk_busy_s", "s", "lower", "sim", "sim_s@hpc-ckpt"},
		{"sim.nic_busy_s", "s", "lower", "sim", "sim_s@spark-scan"},
		{"sim.cpu_busy_s", "s", "lower", "sim", "sim_s@s3-smallobj"},
		{"sim.disk_ops_per_op", "count", "lower", "sim", "sim_s@hpc-ckpt"},
		{"sim.nic_ops_per_op", "count", "lower", "sim", "sim_s@s3-smallobj"},

		{"host.memmove_gbps", "GB/s", "higher", "host", "write_mbps@hpc-ckpt read_mbps@spark-scan"},
		{"host.crc32c_gbps", "GB/s", "higher", "host", "write_mbps@hpc-ckpt"},
		{"host.nproc", "count", "higher", "host", "ops_per_s@s3-smallobj"},
		{"host.gomaxprocs", "count", "higher", "host", "ops_per_s@s3-smallobj"},
		{"host.clients", "count", "higher", "host", "ops_per_s@s3-smallobj"},
		{"host.l2_kib", "KiB", "higher", "host", "read_mbps@spark-scan"},
		{"host.l3_kib", "KiB", "higher", "host", "read_mbps@spark-scan"},
		{"host.steal_share", "ratio", "lower", "host", "write_mbps@hpc-ckpt ops_per_s@s3-smallobj"},

		{"trace.overhead_share", "ratio", "lower", "bench", "ops_per_s@s3-smallobj"},
		{"gen.lag_share", "ratio", "lower", "bench", "ops_per_s@s3-smallobj"},
		{"bench.op_p99_us", "us", "lower", "bench", "ops_per_s@s3-smallobj"},
		{"bench.failed_share", "ratio", "lower", "bench", "ops_per_s@fault-drill"},
	}...)
}

// declared is a metric's name and unit.
type declared struct{ name, unit string }

// declaredMetrics lists what a run in the given mode reports, in order.
func declaredMetrics(trace int) []declared {
	var out []declared
	if trace == 0 {
		for _, m := range endToEndMetrics {
			out = append(out, declared{m.name, m.unit})
		}
		return out
	}
	for _, m := range perLayerMetrics {
		out = append(out, declared{m.name, m.unit})
	}
	return out
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// writeDeclaration writes BENCHMARK.json from the tables above.
func writeDeclaration(w io.Writer) error {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEndJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []endToEndJSON `json:"end_to_end"`
		PerLayer   []perLayerJSON `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		decl.Workloads = append(decl.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		decl.EndToEnd = append(decl.EndToEnd, endToEndJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics {
		decl.PerLayer = append(decl.PerLayer, perLayerJSON{m.name, m.unit, m.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(decl)
}
