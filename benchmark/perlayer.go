package main

// layerReporter is implemented by workloads with per-layer numbers of
// their own (fault-drill's failure-domain counters, spark-scan's output
// turnover).
type layerReporter interface {
	layerMetrics(out map[string]float64, rounds int)
}

// liveMigrator is implemented by fault-drill: a last sub-phase that runs
// after the epilogue because its failures stay out of the verdict.
type liveMigrator interface {
	liveMigration(out map[string]float64) error
}

// perLayer fills the per-layer metrics read off the alternating slices of
// a traced run: process counters and virtual-device counters from the bare
// slices, spans from the traced ones, control-plane timers from both.
func perLayer(out map[string]float64, w workload, bare, traced *measured, rep *traceReport) {
	out["mpiio.self_share"] = rep.share(layerMPIIO)
	out["mpiio.fs_calls_per_call"] = ratio(rep.under[layerBlobfs][layerMPIIO], rep.calls[layerMPIIO])
	out["blobfs.self_share"] = rep.share(layerBlobfs)
	out["blobfs.blob_calls_per_fs_call"] = ratio(rep.under[layerBlob][layerBlobfs], rep.calls[layerBlobfs])
	out["sparksim.self_share"] = rep.share(layerSparksim)
	out["sparksim.job_p50_ms"] = quantile(rep.durs["sparksim.run"], 0.5) / 1e6
	out["s3gw.self_us"] = quantile(rep.selfs[layerS3gw], 0.5) / 1e3
	out["s3gw.blob_calls_per_req"] = ratio(rep.under[layerBlob][layerS3gw], rep.calls[layerS3gw])

	var bareOps, userBytes, tracedOps int64
	for _, s := range bare.slices {
		bareOps += s.ops
		userBytes += s.readBytes + s.writeBytes
	}
	for _, s := range traced.slices {
		tracedOps += s.ops
	}
	out["proc.allocs_per_op"] = ratio(int64(bare.mallocs), bareOps)
	out["proc.alloc_bytes_per_user_byte"] = ratio(int64(bare.allocBytes), userBytes)
	out["proc.gc_pause_ms"] = float64(bare.gcPause) / 1e6

	out["blob.share"] = rep.share(layerBlob)
	for _, p := range blobPrimitives {
		d := rep.durs["blob."+p]
		out["blob."+p+".calls"] = ratio(int64(len(d)), tracedOps)
		out["blob."+p+".p50_us"] = quantile(d, 0.5) / 1e3
	}
	out["blob.read.p99_us"] = quantile(rep.durs["blob.read"], 0.99) / 1e3
	out["blob.write.p99_us"] = quantile(rep.durs["blob.write"], 0.99) / 1e3
	// ns per byte through the blob API, for the floor multiples.
	out["blob.read.ns_per_byte"] = ratio(sum(rep.durs["blob.read"]), rep.bytes["blob.read"])
	out["blob.write.ns_per_byte"] = ratio(sum(rep.durs["blob.write"]), rep.bytes["blob.write"])

	fx := w.fixture()
	ctl := func(name string) float64 { return medianF(fx.ctl[name]) }
	rate := func(name string) float64 {
		var v []float64
		for i, s := range fx.ctl[name] {
			if i < len(fx.ctlBytes[name]) && s > 0 {
				v = append(v, fx.ctlBytes[name][i]/s/1e6)
			}
		}
		return medianF(v)
	}
	out["blob.checkpoint.s"] = ctl("checkpoint")
	out["blob.checkpoint.mbps"] = rate("checkpoint")
	out["blob.checkpoint.stall_share"] = bare.perSlice("stall_share", func(s *sliceStats) float64 {
		return ratio(int64(s.maintWall), int64(s.fgWall+s.maintWall))
	})
	out["blob.snapshot_bytes_per_user_byte"] = ratio(fx.walFloor, fx.liveBytes)
	out["blob.recover.s"] = ctl("recover")
	out["blob.recover.mbps"] = rate("recover")
	out["blob.repair.s"] = ctl("repair")
	out["blob.removeserver.s"] = ctl("removeserver")
	out["blob.addserver.s"] = ctl("addserver")
	if lr, ok := w.(layerReporter); ok {
		lr.layerMetrics(out, len(bare.slices)+len(traced.slices))
	}

	out["sim.disk_busy_s"] = bare.perSlice("disk_busy_s", func(s *sliceStats) float64 { return s.diskBusy.Seconds() })
	out["sim.nic_busy_s"] = bare.perSlice("nic_busy_s", func(s *sliceStats) float64 { return s.nicBusy.Seconds() })
	out["sim.cpu_busy_s"] = bare.perSlice("cpu_busy_s", func(s *sliceStats) float64 { return s.cpuBusy.Seconds() })
	out["sim.disk_ops_per_op"] = bare.perSlice("disk_ops_per_op", func(s *sliceStats) float64 { return ratio(s.diskOps, s.ops) })
	out["sim.nic_ops_per_op"] = bare.perSlice("nic_ops_per_op", func(s *sliceStats) float64 { return ratio(s.nicOps, s.ops) })

	// Bare slice i and traced slice i ran back to back, so their ratio is
	// free of the host's drift; the median pair is the overhead.
	perOp := func(s *sliceStats) float64 { return ratio(int64(s.fgWall), s.ops) }
	bare.perSlice("ns_per_op bare", perOp)
	traced.perSlice("ns_per_op traced", perOp)
	var pairs []float64
	for i := 0; i < min(len(bare.slices), len(traced.slices)); i++ {
		if b := perOp(&bare.slices[i]); b > 0 {
			pairs = append(pairs, perOp(&traced.slices[i])/b-1)
		}
	}
	out["trace.overhead_share"] = medianF(pairs)
	out["gen.lag_share"] = 1 - rep.coverage
	_, _, all := mergeLatencies(bare.lat)
	out["bench.op_p99_us"] = quantile(all, 0.99) / 1e3
}

// derived fills the metrics computed from other metrics: how far the blob
// API sits above the host's own floor for the same bytes. A write moves
// and checksums every byte once per replica; a read moves it once.
func derived(out map[string]float64) {
	nsPerByte := func(gbps float64) float64 {
		if gbps <= 0 {
			return 0
		}
		return 1 / gbps
	}
	move, sum := nsPerByte(out["host.memmove_gbps"]), nsPerByte(out["host.crc32c_gbps"])
	if floor := replication * (move + sum); floor > 0 {
		out["blob.write.floor_x"] = out["blob.write.ns_per_byte"] / floor
		out["wal.append.floor_x"] = out["wal.append.ns_per_byte"] / (move + sum)
	}
	if move > 0 {
		out["blob.read.floor_x"] = out["blob.read.ns_per_byte"] / move
	}
}

func sum(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}
