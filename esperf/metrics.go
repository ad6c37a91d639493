package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
)

// e2eNames are the end-to-end metrics of BENCHMARK.json, printed as the
// last line of every untraced run. Each is defined for every workload
// over its own operation: a monitored allreduce round on the live
// workloads, one pass of the query mix on archive-query.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerNames are the per-layer metrics of BENCHMARK.json, printed as the
// last line of every traced run. Counts a workload does not exercise
// read 0 (escope.thread_gather_rate off statsm-lan, monitor.ingest_shed
// off lb-archive's ingest queue); the ns/tuple replays run everywhere.
var layerNames = []struct{ name, unit string }{
	{"vclock.sim_wall_us_per_round", "us"},
	{"vnet.msgs_per_round", "count"},
	{"paths.wire_encode_ns_per_tuple", "ns"},
	{"paths.wire_decode_ns_per_tuple", "ns"},
	{"paths.stub_retries", "count"},
	{"collect.encode_ns_per_tuple", "ns"},
	{"collect.encode_allocs_per_tuple", "count"},
	{"collect.decode_ns_per_tuple", "ns"},
	{"collect.records_per_round", "count"},
	{"pastset.write_ns_per_tuple", "ns"},
	{"pastset.drain_ns_per_tuple", "ns"},
	{"pastset.overwritten_frac", "1"},
	{"escope.pulls_per_round", "count"},
	{"escope.pull_errors", "count"},
	{"escope.batch_tuples_mean", "count"},
	{"escope.gather_bytes_per_round", "B"},
	{"escope.model_pull_us_p50", "us"},
	{"escope.model_pull_us_p99", "us"},
	{"escope.thread_gather_rate", "1"},
	{"monitor.join_ns_per_tuple", "ns"},
	{"monitor.join_allocs_per_round", "count"},
	{"monitor.rounds_observed_frac", "1"},
	{"monitor.ingest_shed", "count"},
	{"analysis.stats_ns_per_tuple", "ns"},
	{"analysis.stats_allocs_per_tuple", "count"},
	{"cosched.windows_per_round", "count"},
	{"archive.append_ns_per_tuple", "ns"},
	{"archive.append_allocs_per_tuple", "count"},
	{"archive.bytes_per_tuple", "B"},
	{"archive.scan_ns_per_tuple", "ns"},
	{"archive.scan_alloc_bytes_per_scan", "B"},
	{"archive.segments_skipped_frac", "1"},
	{"archive.blocks_skipped_frac", "1"},
	{"archive.open_ms", "ms"},
	{"checkpoint.self_ns_per_tuple", "ns"},
	{"checkpoint.frame_bytes", "B"},
	{"checkpoint.frames", "count"},
	{"checkpoint.load_ms", "ms"},
	{"query.offer_self_ns_per_tuple", "ns"},
	{"query.parse_us", "us"},
	{"query.eval_ns_per_row", "ns"},
	{"query.matched_frac", "1"},
	{"reconfig.scans_per_full_replay", "count"},
	{"reconfig.bytes_replayed_frac", "1"},
	{"core.build_ms", "ms"},
	{"core.attach_ms", "ms"},
	{"core.recorder_allocs_per_tuple", "count"},
	{"trace.overhead_pct", "%"},
}

// e2eMetrics maps the workload's own series onto the end-to-end names.
func (r *report) e2eMetrics() map[string]value {
	lat := r.named[r.latName]
	m := map[string]value{
		"setup_s":     {r.median("setup_s"), "s"},
		"ops_per_s":   {r.median(r.opsName), "1/s"},
		"op_p50_ms":   {nan, "ms"},
		"op_p90_ms":   {nan, "ms"},
		"peak_rss_mb": {r.median("peak_rss_mb"), "MB"},
	}
	if lat != nil {
		m["op_p50_ms"] = value{lat.d.median(), "ms"}
		m["op_p90_ms"] = value{lat.d.quantile(0.9), "ms"}
	}
	return m
}

// layerMetrics returns every per-layer metric; a missing one is NaN so
// the run fails instead of printing a partial result.
func (r *report) layerMetrics() map[string]value {
	m := map[string]value{}
	for _, l := range layerNames {
		v, ok := r.layer[l.name]
		if !ok {
			v = value{nan, l.unit}
		}
		m[l.name] = v
	}
	return m
}

// liveLayers fills the per-layer metrics of a traced live run: the
// monitored run's registry counters, then the layer replays over the
// tuple stream an lb-archive recording archived (on lb-archive its own
// last pair; on statsm-lan, which archives nothing, a recording made
// for the purpose).
func liveLayers(o *opts, spec liveSpec, last *sysRun, rep *report, tr *tracer) error {
	runLayers(last, rep)
	rep.setLayer("vclock.sim_wall_us_per_round", "us", rep.median("vclock.sim_wall_us_per_round"))
	rep.setLayer("vnet.msgs_per_round", "count", rep.median("vnet.msgs_per_round"))
	rep.setLayer("core.build_ms", "ms", rep.median("core.build_ms"))
	rep.setLayer("core.attach_ms", "ms", rep.median("core.attach_ms"))
	src := last
	if !spec.archive {
		var err error
		if src, err = recordStream(o, tr); err != nil {
			return err
		}
	}
	defer os.RemoveAll(src.dir)
	st, err := loadStream(src.dir, o.sz.replayTuples, batchTuples(src.snap))
	if err != nil {
		return err
	}
	return layerReplays(st, rep, tr)
}

// runLayers records the per-layer figures one monitored run carries:
// its registry counters and its monitors' accounting.
func runLayers(mon *sysRun, rep *report) {
	r := float64(mon.rounds)
	registryLayers(mon.snap, r, rep)
	rep.setLayer("pastset.overwritten_frac", "1", 1-mon.gatherRate)
	rep.setLayer("monitor.rounds_observed_frac", "1", mon.roundsObservedFrac)
	rep.setLayer("monitor.ingest_shed", "count", float64(mon.ingestShed))
	rep.setLayer("escope.thread_gather_rate", "1", mon.threadGatherRate)
	rep.setLayer("cosched.windows_per_round", "count", float64(mon.cosched)/r)
}

// recordStream records an uncrashed lb-archive run for the layer
// replays of a workload that archives nothing itself.
func recordStream(o *opts, tr *tracer) (*sysRun, error) {
	spec := lbArchiveSpec(o.sz)
	spec.chunks = max(o.sz.fixtureRounds/spec.chunk, 1)
	return runSystem(spec, mix(o.seed, 5), true, tr, nil)
}

// queryLayers fills archive-query's per-layer metrics: the live ones
// from the fixture recording and a twin run of the same spec, then the
// layer replays over the fixture's tuple stream.
func queryLayers(o *opts, fx *fixture, rep *report, tr *tracer) error {
	spec := fx.spec
	twin, err := runSystem(spec, fx.seed, false, nil, nil)
	if err != nil {
		return err
	}
	mon := fx.run
	r := float64(mon.rounds)
	runLayers(mon, rep)
	rep.setLayer("vclock.sim_wall_us_per_round", "us", us(sumDur(twin.wall))/r)
	rep.setLayer("vnet.msgs_per_round", "count", (float64(mon.msgs)-float64(twin.msgs))/r)
	rep.setLayer("core.build_ms", "ms", ms(mon.build))
	rep.setLayer("core.attach_ms", "ms", ms(mon.attach))
	st, err := loadStream(fx.dir, o.sz.replayTuples, batchTuples(mon.snap))
	if err != nil {
		return err
	}
	return layerReplays(st, rep, tr)
}

// runWorkload runs o.workload once into rep.
func runWorkload(o *opts, rep *report) (*tracer, error) {
	switch o.workload {
	case "lb-archive":
		return runLive(o, lbArchiveSpec(o.sz), rep)
	case "statsm-lan":
		return runLive(o, statsmLANSpec(o.sz), rep)
	case "archive-query":
		return runArchiveQuery(o, rep)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
}

// runTraced splits the budget: an untraced half gives the reference
// end-to-end figures, a traced half the per-layer ones, and the gap
// between the two halves' end-to-end figures is the tracing overhead.
func runTraced(o *opts, rep *report, w io.Writer) (*tracer, error) {
	plain := *o
	plain.trace = false
	plain.seconds = max(o.seconds/2, 1)
	base := newReport()
	if _, err := runWorkload(&plain, base); err != nil {
		return nil, err
	}
	runtime.GC()
	traced := *o
	traced.seconds = max(o.seconds-plain.seconds, 1)
	tr, err := runWorkload(&traced, rep)
	if err != nil {
		return nil, err
	}
	rep.merge(base)
	be, te := base.e2eMetrics(), rep.e2eMetrics()
	for _, e := range e2eNames {
		b, t := be[e.name].Value, te[e.name].Value
		fmt.Fprintf(w, "trace-overhead %-12s %-4s untraced=%s traced=%s change=%+.2f%%\n", e.name, e.unit, fmtNum(b), fmtNum(t), 100*(t-b)/b)
	}
	// Throughput is the headline: the overhead is how much slower the
	// traced half ran.
	rep.setLayer("trace.overhead_pct", "%", 100*(be["ops_per_s"].Value/te["ops_per_s"].Value-1))
	return tr, nil
}

// merge folds another run's operation accounting and checks into r.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	for _, k := range o.checkKeys {
		c := o.checks[k]
		mine, ok := r.checks[k]
		if !ok {
			mine = &checkResult{Name: k, Detail: c.Detail}
			r.checks[k] = mine
			r.checkKeys = append(r.checkKeys, k)
		}
		mine.Passed += c.Passed
		if c.Failed > 0 && mine.Failed == 0 {
			mine.Detail = c.Detail
		}
		mine.Failed += c.Failed
	}
	r.failed += o.failed
}
