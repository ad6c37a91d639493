package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"eventspace"
	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/query"
	"eventspace/internal/reconfig"
)

// replayReps is how many times each layer replay runs; the per-tuple
// figures are the median repetition.
const replayReps = 5

// stream is the tuple stream an lb-archive recording archived, ready to
// be fed through each layer's public entry point in gather-sized
// batches.
type stream struct {
	dir     string // the recording's archive, with its checkpoint chain
	infos   []eventspace.CollectorInfo
	tuples  []collect.TraceTuple // data tuples, archive order
	raw     []byte               // their 28-byte wire encoding
	batches [][]byte             // raw, cut into gather-sized batches
}

// loadStream reads up to max data tuples of the archive at dir and cuts
// them into batches of batch tuples.
func loadStream(dir string, max, batch int) (*stream, error) {
	r, err := eventspace.OpenArchive(dir)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	st := &stream{dir: dir}
	if st.infos, err = eventspace.ReadArchiveMeta(dir); err != nil {
		return nil, err
	}
	_, err = r.Scan(archive.Query{}, func(t collect.TraceTuple) bool {
		if t.ECID != collect.ControlECID {
			st.tuples = append(st.tuples, t)
		}
		return len(st.tuples) < max
	})
	if err != nil {
		return nil, err
	}
	if len(st.tuples) == 0 {
		return nil, fmt.Errorf("stream %s holds no data tuples", dir)
	}
	st.raw = make([]byte, len(st.tuples)*collect.TupleSize)
	for i, t := range st.tuples {
		t.EncodeTo(st.raw[i*collect.TupleSize:])
	}
	step := batch * collect.TupleSize
	for off := 0; off < len(st.raw); off += step {
		st.batches = append(st.batches, st.raw[off:min(off+step, len(st.raw))])
	}
	return st, nil
}

// perTuple times fn replayReps times and returns the median ns per
// tuple of n tuples.
func perTuple(tr *tracer, name string, parent int64, n int, fn func() error) (float64, error) {
	var d dist
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		if err := tr.do(name, parent, func(int64) error { return fn() }); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d = append(d, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return d.median(), nil
}

// timingSink wraps a RawSink in a span. Sinks of one chain share cur,
// the open span, so a nested sink's span is its caller's child and
// self time is the span minus its child.
type timingSink struct {
	name  string
	inner interface{ AppendRaw([]byte) error }
	tr    *tracer
	cur   *int64
}

func (s *timingSink) AppendRaw(data []byte) error {
	parent := *s.cur
	return s.tr.do(s.name, parent, func(id int64) error {
		*s.cur = id
		defer func() { *s.cur = parent }()
		return s.inner.AppendRaw(data)
	})
}

// loopback carries a paths stub's calls straight into a service
// handler, so a Remote.Op runs the whole wire codec with no network.
type loopback struct {
	handle func([]byte) ([]byte, error)
	tr     *tracer
	cur    *int64
}

func (l *loopback) Call(p []byte) ([]byte, error) {
	var out []byte
	err := l.tr.do("replay.paths.handler", *l.cur, func(int64) (err error) {
		out, err = l.handle(p)
		return err
	})
	return out, err
}

func (l *loopback) Close() error { return nil }

// layerReplays feeds the stream through every layer's public entry
// point and records the per-tuple costs.
func layerReplays(st *stream, rep *report, tr *tracer) error {
	return tr.do("replay", 0, func(root int64) error {
		n := len(st.tuples)
		steps := []func(*stream, *report, *tracer, int64, int) error{
			replayCollect, replayPaths, replayPastset, replayMonitor, replayAnalysis,
			replaySinkChain, replayAppend, replayRead, replayRecovery,
		}
		for _, step := range steps {
			if err := step(st, rep, tr, root, n); err != nil {
				return err
			}
		}
		return nil
	})
}

func replayCollect(st *stream, rep *report, tr *tracer, root int64, n int) error {
	buf := make([]byte, len(st.raw))
	enc := func() error {
		for i, t := range st.tuples {
			t.EncodeTo(buf[i*collect.TupleSize:])
		}
		return nil
	}
	ns, err := perTuple(tr, "replay.collect.encode", root, n, enc)
	if err != nil {
		return err
	}
	rep.setLayer("collect.encode_ns_per_tuple", "ns", ns)
	a, _, _ := allocs(enc)
	rep.setLayer("collect.encode_allocs_per_tuple", "count", float64(a)/float64(n))
	dst := make([]collect.TraceTuple, 0, n)
	ns, err = perTuple(tr, "replay.collect.decode", root, n, func() (err error) {
		dst, err = collect.DecodeAppend(dst[:0], st.raw)
		return err
	})
	rep.setLayer("collect.decode_ns_per_tuple", "ns", ns)
	return err
}

func replayPaths(st *stream, rep *report, tr *tracer, root int64, n int) error {
	svc := paths.NewService()
	next := 0
	target := svc.Register(paths.NewFunc("replay-source", nil, func(*paths.Ctx, paths.Request) (paths.Reply, error) {
		b := st.batches[next%len(st.batches)]
		next++
		return paths.Reply{Data: b, Ret: int16(len(b) / collect.TupleSize)}, nil
	}))
	var cur int64
	stub := paths.NewRemote("replay-stub", nil, &loopback{handle: svc.Handler(), tr: tr, cur: &cur}, target)
	ctx := &paths.Ctx{Thread: "replay"}
	var total, handler time.Duration
	for i := 0; i < replayReps; i++ {
		next = 0
		moved := 0
		h0, _ := tr.total("replay.paths.handler")
		t0 := time.Now()
		err := tr.do("replay.paths.pull", root, func(id int64) error {
			cur = id
			for range st.batches {
				r, err := stub.Op(ctx, paths.Request{Kind: paths.OpRead})
				if err != nil {
					return err
				}
				moved += len(r.Data)
			}
			return nil
		})
		total += time.Since(t0)
		h1, _ := tr.total("replay.paths.handler")
		handler += h1 - h0
		if err != nil {
			return err
		}
		if moved != len(st.raw) {
			return fmt.Errorf("paths replay moved %d bytes, want %d", moved, len(st.raw))
		}
	}
	// The handler decodes the small pull request and encodes the batch
	// reply; the stub's remainder encodes the request and decodes the
	// reply, so each side is dominated by one direction of the batch.
	per := float64(replayReps * n)
	rep.setLayer("paths.wire_encode_ns_per_tuple", "ns", float64(handler.Nanoseconds())/per)
	rep.setLayer("paths.wire_decode_ns_per_tuple", "ns", float64((total-handler).Nanoseconds())/per)
	return nil
}

func replayPastset(st *stream, rep *report, tr *tracer, root int64, n int) error {
	el, err := pastset.NewElementFixed("replay-trace", traceBufTuples, collect.TupleSize)
	if err != nil {
		return err
	}
	defer el.Close()
	cur := el.NewCursor()
	batch := len(st.batches[0]) / collect.TupleSize
	drained := make([]byte, 0, len(st.batches[0]))
	var writeNS, drainNS time.Duration
	for i := 0; i < replayReps; i++ {
		var w, d time.Duration
		err := tr.do("replay.pastset", root, func(id int64) error {
			for _, b := range st.batches {
				t0 := time.Now()
				for off := 0; off < len(b); off += collect.TupleSize {
					if _, err := el.WriteCopy(b[off : off+collect.TupleSize]); err != nil {
						return err
					}
				}
				t1 := time.Now()
				var err error
				drained, _, err = cur.DrainBytesInto(drained[:0], batch, collect.TupleSize)
				if err != nil {
					return err
				}
				w += t1.Sub(t0)
				d += time.Since(t1)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if i == 0 || w < writeNS {
			writeNS = w
		}
		if i == 0 || d < drainNS {
			drainNS = d
		}
	}
	rep.setLayer("pastset.write_ns_per_tuple", "ns", float64(writeNS.Nanoseconds())/float64(n))
	rep.setLayer("pastset.drain_ns_per_tuple", "ns", float64(drainNS.Nanoseconds())/float64(n))
	return nil
}

// traceBufTuples is the paper's trace-buffer size in tuples.
const traceBufTuples = 3750

func replayMonitor(st *stream, rep *report, tr *tracer, root int64, n int) error {
	ports, err := archive.LastArrivalPorts(st.infos)
	if err != nil {
		return err
	}
	var la *monitor.LastArrivalReplay
	feed := func() error {
		var err error
		if la, err = monitor.NewLastArrivalReplay(ports); err != nil {
			return err
		}
		for _, t := range st.tuples {
			la.Feed(t)
		}
		return nil
	}
	ns, err := perTuple(tr, "replay.monitor.join", root, n, feed)
	if err != nil {
		return err
	}
	a, _, _ := allocs(feed)
	rounds := la.Weighted().Total()
	rep.setLayer("monitor.join_ns_per_tuple", "ns", ns)
	rep.setLayer("monitor.join_allocs_per_round", "count", float64(a)/float64(max(rounds, 1)))
	return nil
}

func replayAnalysis(st *stream, rep *report, tr *tracer, root int64, n int) error {
	ports, err := archive.StatsPorts(st.infos)
	if err != nil {
		return err
	}
	feed := func() error {
		sr, err := monitor.NewStatsReplay(ports, 100)
		if err != nil {
			return err
		}
		for _, t := range st.tuples {
			sr.Feed(t)
		}
		return nil
	}
	ns, err := perTuple(tr, "replay.analysis.stats", root, n, feed)
	if err != nil {
		return err
	}
	a, _, _ := allocs(feed)
	rep.setLayer("analysis.stats_ns_per_tuple", "ns", ns)
	rep.setLayer("analysis.stats_allocs_per_tuple", "count", float64(a)/float64(n))
	return nil
}

// replaySinkChain feeds the batches through the recorder's sink chain,
// built as a live recorder builds it — checkpointer, then query engine,
// then archive writer — with a timing sink in front of each link, so
// each layer's self time is its span minus the next link's.
func replaySinkChain(st *stream, rep *report, tr *tracer, root int64, n int) error {
	stmt, err := query.Parse(alertStmt)
	if err != nil {
		return err
	}
	var ckSelf, engSelf, appendNS dist
	var chainAllocs, bytesPerTuple, frames, frameBytes float64
	for i := 0; i < replayReps; i++ {
		dir, err := os.MkdirTemp(workDir, "chain-")
		if err != nil {
			return err
		}
		w, err := archive.Create(archive.Options{Dir: dir})
		if err != nil {
			return err
		}
		var cur int64
		wSink := &timingSink{name: "replay.archive.append", inner: w, tr: tr, cur: &cur}
		eng := query.NewEngine(wSink)
		eng.SetExpected(len(st.infos))
		if err := eng.Register(stmt); err != nil {
			return err
		}
		eSink := &timingSink{name: "replay.query.offer", inner: eng, tr: tr, cur: &cur}
		ck, err := checkpoint.New(w, eSink, eng, st.infos, checkpoint.Config{})
		if err != nil {
			return err
		}
		head := &timingSink{name: "replay.checkpoint", inner: ck, tr: tr, cur: &cur}
		before := tr.selfTime()
		a, _, err := allocs(func() error {
			return tr.do("replay.sink_chain", root, func(id int64) error {
				cur = id
				for _, b := range st.batches {
					if err := head.AppendRaw(b); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		after := tr.selfTime()
		self := func(name string) float64 {
			return float64((after[name] - before[name]).Nanoseconds()) / float64(n)
		}
		ckSelf = append(ckSelf, self("replay.checkpoint"))
		engSelf = append(engSelf, self("replay.query.offer"))
		appendNS = append(appendNS, self("replay.archive.append"))
		chainAllocs = float64(a) / float64(n)
		cs := ck.Stats()
		if err := w.Close(); err != nil {
			return err
		}
		ws := w.Stats()
		bytesPerTuple = float64(ws.TotalBytes) / float64(n)
		frames = float64(cs.Written)
		frameBytes = float64(cs.Bytes) / float64(max(cs.Written, 1))
		os.RemoveAll(dir)
	}
	rep.setLayer("checkpoint.self_ns_per_tuple", "ns", ckSelf.median())
	rep.setLayer("checkpoint.frames", "count", frames)
	rep.setLayer("checkpoint.frame_bytes", "B", frameBytes)
	rep.setLayer("query.offer_self_ns_per_tuple", "ns", engSelf.median())
	rep.setLayer("archive.append_ns_per_tuple", "ns", appendNS.median())
	rep.setLayer("core.recorder_allocs_per_tuple", "count", chainAllocs)
	rep.setLayer("archive.bytes_per_tuple", "B", bytesPerTuple)
	return nil
}

// replayAppend counts the archive writer's own allocations per tuple,
// appending the batches straight into a fresh archive.
func replayAppend(st *stream, rep *report, tr *tracer, root int64, n int) error {
	dir, err := os.MkdirTemp(workDir, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := archive.Create(archive.Options{Dir: dir})
	if err != nil {
		return err
	}
	a, _, err := allocs(func() error {
		return tr.do("replay.archive.append_plain", root, func(int64) error {
			for _, b := range st.batches {
				if err := w.AppendRaw(b); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	rep.setLayer("archive.append_allocs_per_tuple", "count", float64(a)/float64(n))
	return w.Close()
}

// replayRead measures the read side on the recording's own archive:
// open, full scan, esql parse and evaluation, and pushdown skipping.
func replayRead(st *stream, rep *report, tr *tracer, root int64, _ int) error {
	var openMS dist
	var r *eventspace.ArchiveReader
	for i := 0; i < replayReps; i++ {
		if r != nil {
			r.Close()
		}
		t0 := time.Now()
		err := tr.do("replay.archive.open", root, func(int64) (err error) {
			r, err = eventspace.OpenArchive(st.dir)
			return err
		})
		if err != nil {
			return err
		}
		openMS = append(openMS, ms(time.Since(t0)))
	}
	defer r.Close()
	rep.setLayer("archive.open_ms", "ms", openMS.median())

	var scanned uint64
	scan := func() error {
		scanned = 0
		_, err := r.Scan(archive.Query{}, func(collect.TraceTuple) bool { scanned++; return true })
		return err
	}
	if err := scan(); err != nil {
		return err
	}
	ns, err := perTuple(tr, "replay.archive.scan", root, int(scanned), scan)
	if err != nil {
		return err
	}
	_, ab, _ := allocs(scan)
	rep.setLayer("archive.scan_ns_per_tuple", "ns", ns)
	rep.setLayer("archive.scan_alloc_bytes_per_scan", "B", float64(ab))

	ref, err := buildReference(r, st.infos)
	if err != nil {
		return err
	}
	m := makeMix(mix(uint64(len(st.tuples)), 3), ref)
	var parse dist
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		for _, src := range []string{m.agg, m.span, m.ecids, alertStmt} {
			if _, err := query.Parse(src); err != nil {
				return err
			}
		}
		parse = append(parse, us(time.Since(t0))/4)
	}
	rep.setLayer("query.parse_us", "us", parse.median())

	agg, err := query.Parse(m.agg)
	if err != nil {
		return err
	}
	var rows uint64
	runNS, err := perTuple(tr, "replay.query.run", root, 1, func() error {
		_, stats, err := query.Run(r, agg)
		rows = stats.TuplesScanned
		return err
	})
	if err != nil {
		return err
	}
	bareNS, err := perTuple(tr, "replay.query.bare_scan", root, 1, func() error {
		_, err := r.Scan(agg.Pushdown(), func(collect.TraceTuple) bool { return true })
		return err
	})
	if err != nil {
		return err
	}
	rep.setLayer("query.eval_ns_per_row", "ns", (runNS-bareNS)/float64(max(rows, 1)))

	var segs, segSkip, blocks, blockSkip, scannedT, matched float64
	for _, src := range []string{m.span, m.ecids} {
		s, err := query.Parse(src)
		if err != nil {
			return err
		}
		stats, err := query.Scan(r, s, func(collect.TraceTuple) bool { return true })
		if err != nil {
			return err
		}
		segs += float64(stats.Segments)
		segSkip += float64(stats.SegmentsSkipped)
		blocks += float64(stats.BlocksScanned + stats.BlocksSkipped)
		blockSkip += float64(stats.BlocksSkipped)
		scannedT += float64(stats.TuplesScanned)
		matched += float64(stats.TuplesMatched)
	}
	rep.setLayer("archive.segments_skipped_frac", "1", segSkip/max(segs, 1))
	rep.setLayer("archive.blocks_skipped_frac", "1", blockSkip/max(blocks, 1))
	rep.setLayer("query.matched_frac", "1", matched/max(scannedT, 1))
	return nil
}

// replayRecovery measures the recovery paths on the recording's own
// archive: checkpoint load, the ladder's bytes replayed, and how many
// archive scans a full replay makes.
func replayRecovery(st *stream, rep *report, tr *tracer, root int64, _ int) error {
	var load dist
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		var ok bool
		tr.do("replay.checkpoint.load", root, func(int64) error {
			_, _, ok = eventspace.LoadNewestCheckpoint(st.dir)
			return nil
		})
		if !ok {
			return fmt.Errorf("recording %s has no valid checkpoint", st.dir)
		}
		load = append(load, ms(time.Since(t0)))
	}
	rep.setLayer("checkpoint.load_ms", "ms", load.median())

	reg := metrics.New()
	if err := tr.do("replay.reconfig.full_replay", root, func(int64) error {
		_, err := reconfig.RebuildFrontEnd(st.dir, reg)
		return err
	}); err != nil {
		return err
	}
	var scans uint64
	for _, op := range reg.Snapshot().ByKind(metrics.KindArchive) {
		if strings.HasPrefix(op.Name, "archive-scan(") {
			scans += op.Ops
		}
	}
	rep.setLayer("reconfig.scans_per_full_replay", "count", float64(scans))

	var fs *reconfig.FailoverState
	if err := tr.do("replay.reconfig.recover", root, func(int64) (err error) {
		fs, err = reconfig.RecoverFrontEnd(st.dir, nil, nil)
		return err
	}); err != nil {
		return err
	}
	rep.setLayer("reconfig.bytes_replayed_frac", "1", float64(fs.BytesReplayed)/float64(max(fs.BytesReplayed+fs.BytesSkipped, 1)))
	return nil
}

// registryLayers derives the per-layer counters of a monitored live run
// from its metrics registry snapshot. rounds is the run's allreduce
// rounds.
func registryLayers(snap *metrics.Snapshot, rounds float64, rep *report) {
	var pulls, pullErrs, pullBytes, collectorOps uint64
	var biggest metrics.OpStats
	for _, op := range snap.ByKind(metrics.KindScopePull) {
		pulls += op.Ops
		pullErrs += op.Errs
		pullBytes += op.Bytes
		if op.Ops > biggest.Ops {
			biggest = op
		}
	}
	for _, op := range snap.ByKind(metrics.KindCollector) {
		collectorOps += op.Ops
	}
	var retries uint64
	for _, c := range snap.Counters {
		if strings.HasSuffix(c.Name, "stub.retries") {
			retries += c.Value
		}
	}
	rep.setLayer("escope.pulls_per_round", "count", float64(pulls)/rounds)
	rep.setLayer("escope.pull_errors", "count", float64(pullErrs))
	rep.setLayer("escope.batch_tuples_mean", "count", float64(pullBytes)/collect.TupleSize/float64(max(pulls, 1)))
	rep.setLayer("escope.gather_bytes_per_round", "B", float64(pullBytes)/rounds)
	rep.setLayer("escope.model_pull_us_p50", "us", float64(biggest.Lat.Quantile(0.50))/1e3)
	rep.setLayer("escope.model_pull_us_p99", "us", float64(biggest.Lat.Quantile(0.99))/1e3)
	rep.setLayer("collect.records_per_round", "count", float64(collectorOps)/rounds)
	rep.setLayer("paths.stub_retries", "count", float64(retries))
}

// batchTuples is the gather batch size the layer replays use: the
// recording's mean escope batch, so replays see the live batch shape.
func batchTuples(snap *metrics.Snapshot) int {
	var pulls, bytes uint64
	for _, op := range snap.ByKind(metrics.KindScopePull) {
		if strings.HasPrefix(op.Name, "archive/") {
			pulls += op.Ops
			bytes += op.Bytes
		}
	}
	b := int(bytes / collect.TupleSize / max(pulls, 1))
	return min(max(b, 1), 4096)
}
