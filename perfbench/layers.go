package main

// layers.go turns a traced pass into per-layer figures: registry
// counters and histogram sums, store/WAL/memo probes, tool spans, and
// the barrier sweeps and checkpoints the benchmark timed.

import (
	"time"

	"papyrus/internal/core"
	"papyrus/internal/obs"
)

// sweepStat is one barrier sweep's reclaim.Stats.
type sweepStat struct {
	versions        int
	bytes           int64
	scanned         int
	memoInvalidated int
}

// layerSample is what one traced pass recorded per layer.
type layerSample struct {
	reg obs.Snapshot

	memoBytes, memoEntries      int64
	walBytes, walFsyncs, walRot int64
	objects                     int64
	contention                  int64
	written                     int64

	toolCalls int64
	toolBusy  time.Duration

	wire    map[string]dist // route -> µs
	retried int64

	sweepMS dist
	sweeps  []sweepStat
}

// collectLayers snapshots the layer probes at the end of a traced drive.
func collectLayers(reg *obs.Registry, sys *core.System, tr *tracer, from int, rec *wireRecorder) *layerSample {
	ls := &layerSample{
		reg:        reg.Snapshot(),
		objects:    int64(sys.Store.ObjectCount()),
		contention: sys.Store.StripeContention(),
		written:    sys.Store.TotalWrittenBytes(),
	}
	if sys.Memo != nil {
		st := sys.Memo.Snapshot()
		ls.memoBytes, ls.memoEntries = st.BytesStored, int64(st.Entries)
	}
	if sys.WAL != nil {
		ls.walBytes, ls.walFsyncs, ls.walRot = sys.WAL.AppendedBytes(), sys.WAL.Fsyncs(), sys.WAL.Rotations()
	}
	tr.mu.Lock()
	for _, s := range tr.spans[from:] {
		if s.Layer == layerCAD && s.End >= 0 {
			ls.toolCalls++
			ls.toolBusy += s.End - s.Start
		}
	}
	tr.mu.Unlock()
	if rec != nil {
		rec.mu.Lock()
		ls.wire = map[string]dist{}
		for route, lat := range rec.lat {
			ls.wire[route] = append(dist(nil), lat...)
		}
		ls.retried = rec.retried
		rec.mu.Unlock()
	}
	return ls
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// wireRoutes are the routes whose client-side median the traced run
// reports.
var wireRoutes = []string{"tasks", "rework", "replay", "query", "contribute", "retrieve", "objects"}

// selfLayers are the layers the traced run charges designer time to.
// Checkpoints and restarts run after the drive and are reported apart.
var selfLayers = []string{layerWire, layerEngine, layerCAD, layerReclaim, layerDesigner}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the traced passes.
// Counts are means per pass; latencies are exact quantiles over raw
// samples; rates are sums over sums.
func layerMetrics(traced []*passResult, self map[string]time.Duration, overheadPct float64) []metric {
	n := float64(len(traced))
	counter := func(name string) float64 {
		var s int64
		for _, p := range traced {
			s += p.layer.reg.Counters[name]
		}
		return float64(s)
	}
	hist := func(name string) (sum, count float64) {
		for _, p := range traced {
			h := p.layer.reg.Histograms[name]
			sum += float64(h.Sum)
			count += float64(h.Count)
		}
		return
	}
	field := func(f func(*layerSample) int64) float64 {
		var s int64
		for _, p := range traced {
			s += f(p.layer)
		}
		return float64(s)
	}
	var steps, cpu, busy, calls, commits float64
	var wireAll dist
	routes := map[string]dist{}
	var sweepMS, ckptMS dist
	var ckptBytes float64
	var sweepN, versions, rbytes, scanned, invalidated float64
	for _, p := range traced {
		steps += float64(p.steps)
		cpu += p.cpu.Seconds() * 1e6
		busy += p.layer.toolBusy.Seconds() * 1e6
		calls += float64(p.layer.toolCalls)
		commits += float64(p.layer.reg.Counters["task.run.commit"])
		for route, lat := range p.layer.wire {
			routes[route] = append(routes[route], lat...)
			wireAll = append(wireAll, lat...)
		}
		sweepMS = append(sweepMS, p.layer.sweepMS...)
		ckptMS = append(ckptMS, p.ckptMS...)
		ckptBytes += float64(p.ckptBytes)
		for _, s := range p.layer.sweeps {
			sweepN++
			versions += float64(s.versions)
			rbytes += float64(s.bytes)
			scanned += float64(s.scanned)
			invalidated += float64(s.memoInvalidated)
		}
	}
	var wireSum float64
	for _, v := range wireAll {
		wireSum += v
	}
	reqSum, reqN := hist("server.req.us")
	waitSum, waitN := hist("server.queue.wait.us")
	execSum, execN := hist("server.task.exec.us")
	batchSum, batchN := hist("task.worker.batch.steps")
	hit, miss := counter("memo.hit"), counter("memo.miss")

	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	for _, r := range wireRoutes {
		add("wire.us_p50."+r, "us", routes[r].median())
	}
	add("net.us_per_req", "us", ratio(wireSum, float64(len(wireAll)))-ratio(reqSum, reqN))
	add("client.retried_429", "count", field(func(l *layerSample) int64 { return l.retried })/n)
	add("server.req_us_mean", "us", ratio(reqSum, reqN))
	add("server.queue_wait_us_mean", "us", ratio(waitSum, waitN))
	add("server.exec_us_mean", "us", ratio(execSum, execN))
	add("server.self_us_per_req", "us", ratio(reqSum-execSum-waitSum, reqN))
	add("server.admit.shed", "count", counter("server.admit.shed")/n)
	add("server.admit.throttle", "count", counter("server.admit.throttle")/n)
	add("cad.calls", "count", calls/n)
	add("cad.us_per_call", "us", ratio(busy, calls))
	add("cad.share", "1", ratio(busy, cpu))
	add("engine.cpu_us_per_step", "us", ratio(cpu-busy, steps))
	add("task.runs", "count", (commits+counter("task.run.abort"))/n)
	add("task.restarts", "count", counter("task.run.restart")/n)
	add("task.batch_steps_mean", "count", ratio(batchSum, batchN))
	add("sprite.migrations", "count", counter("sprite.proc.migrate")/n)
	add("memo.hit", "count", hit/n)
	add("memo.miss", "count", miss/n)
	add("memo.hit_ratio", "1", ratio(hit, hit+miss))
	add("memo.bytes", "B", field(func(l *layerSample) int64 { return l.memoBytes })/n)
	add("memo.entries", "count", field(func(l *layerSample) int64 { return l.memoEntries })/n)
	add("memo.invalidated", "count", invalidated/n)
	add("oct.puts", "count", counter("oct.version.put")/n)
	add("oct.gets", "count", counter("oct.version.get")/n)
	add("oct.written_bytes_per_step", "B", ratio(field(func(l *layerSample) int64 { return l.written }), steps))
	add("oct.objects", "count", field(func(l *layerSample) int64 { return l.objects })/n)
	add("oct.stripe_contention", "count", field(func(l *layerSample) int64 { return l.contention })/n)
	add("wal.bytes_per_step", "B", ratio(field(func(l *layerSample) int64 { return l.walBytes }), steps))
	add("wal.records", "count", counter("wal.append.records")/n)
	add("wal.fsyncs", "count", field(func(l *layerSample) int64 { return l.walFsyncs })/n)
	add("wal.fsyncs_per_commit", "1", ratio(field(func(l *layerSample) int64 { return l.walFsyncs }), commits))
	add("wal.rotations", "count", field(func(l *layerSample) int64 { return l.walRot })/n)
	var restarted float64
	for _, p := range traced {
		if p.checks.restart {
			restarted++
		}
	}
	add("checkpoint.count", "count", ratio(float64(len(ckptMS)), restarted))
	add("checkpoint.ms_p50", "ms", ckptMS.median())
	add("checkpoint.ms_max", "ms", ckptMS.max())
	add("checkpoint.bytes", "B", ratio(ckptBytes, float64(len(ckptMS))))
	add("reclaim.sweeps", "count", sweepN/n)
	add("reclaim.sweep_ms_p50", "ms", sweepMS.median())
	add("reclaim.sweep_ms_max", "ms", sweepMS.max())
	add("reclaim.versions", "count", versions/n)
	add("reclaim.bytes", "B", rbytes/n)
	add("reclaim.scanned", "count", scanned/n)
	add("activity.cursor_moves", "count", counter("activity.cursor.move")/n)
	add("activity.attaches", "count", counter("activity.record.attach")/n)
	add("activity.replays", "count", counter("activity.record.replay")/n)
	add("sds.contribute", "count", counter("sds.object.contribute")/n)
	add("sds.retrieve", "count", counter("sds.object.retrieve")/n)
	add("sds.notify_fire", "count", counter("sds.notify.fire")/n)
	var gcN, gcPause float64
	for _, p := range traced {
		gcN += float64(p.gcCycles)
		gcPause += p.gcPause.Seconds() * 1e3
	}
	add("gc.cycles", "count", gcN/n)
	add("gc.pause_ms_total", "ms", gcPause/n)
	add("trace.overhead_pct", "%", overheadPct)
	var total time.Duration
	for _, l := range selfLayers {
		total += self[l]
	}
	for _, l := range selfLayers {
		name := "self_pct." + l
		if l == layerDesigner {
			name = "self_pct.unattributed"
		}
		add(name, "%", 100*ratio(float64(self[l]), float64(total)))
	}
	return out
}
