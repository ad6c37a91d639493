package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"eventspace"
	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/query"
	"eventspace/internal/reconfig"
)

// fixture is the archive archive-query reads: recorded once per run by
// the lb-archive path, crashed late at a seeded block flush so the
// newest checkpoint sits behind a real suffix.
type fixture struct {
	spec      liveSpec
	seed      uint64
	dir       string
	rounds    int
	crashAt   int
	recordDur time.Duration
	run       *sysRun
}

// recordFixture records the fixture under its own virtual clock.
func recordFixture(o *opts, tr *tracer) (*fixture, error) {
	spec := lbArchiveSpec(o.sz)
	spec.chunk = o.sz.fixtureRounds
	if spec.chunk > 500 {
		spec.chunk = 500
	}
	spec.chunks = o.sz.fixtureRounds / spec.chunk
	// About 61 tuples per round land in 256-tuple blocks; crash between
	// 85% and 87% of the way through the expected flushes, so the
	// fixture's size barely depends on the seed.
	flushes := spec.chunk * spec.chunks * 61 / 256
	crashAt := int(float64(flushes) * (0.85 + 0.02*unit(mix(o.seed, 7))))
	cps := &eventspace.CrashPoints{Seed: o.seed, Specs: []eventspace.CrashSpec{{Site: eventspace.CrashBlockFlush, Count: crashAt}}}
	t0 := time.Now()
	seed := mix(o.seed, 1)
	run, err := runSystem(spec, seed, true, tr, cps)
	if err != nil && !errors.Is(err, eventspace.ErrInjectedCrash) {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	if len(cps.Fired()) == 0 {
		return nil, fmt.Errorf("fixture: crash point at block flush %d never fired", crashAt)
	}
	return &fixture{spec: spec, seed: seed, dir: run.dir, rounds: run.rounds, crashAt: crashAt, recordDur: time.Since(t0), run: run}, nil
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// mixStmts is the query mix's three esql statements, generated from
// the seed and the fixture's stamp span.
type mixStmts struct {
	agg, span, ecids string
	lo, hi           int64
	ids              []uint32
}

// aggRef is the plain-scan reference for the aggregate statement.
type aggRow struct {
	count, errs, sum, min, max int64
}

// reference is computed once per run with plain Reader.Scan calls and
// no pushdown; every mix result is checked against it.
type reference struct {
	agg       map[uint32]*aggRow
	spanRows  uint64
	ecidRows  uint64
	tuples    uint64
	full      *reconfig.FailoverState
	minStamp  int64
	maxStamp  int64
	dataECIDs []uint32
}

const aggSrc = "select count(), errors(), sum(latency), min(latency), max(latency) by ecid"

// buildReference scans the whole archive without pushdown.
func buildReference(r *eventspace.ArchiveReader, infos []eventspace.CollectorInfo) (*reference, error) {
	ref := &reference{agg: map[uint32]*aggRow{}, minStamp: math.MaxInt64}
	_, err := r.Scan(archive.Query{}, func(t collect.TraceTuple) bool {
		ref.tuples++
		lat := t.End - t.Start
		a, ok := ref.agg[t.ECID]
		if !ok {
			a = &aggRow{min: lat, max: lat}
			ref.agg[t.ECID] = a
		}
		a.count++
		if t.Ret < 0 {
			a.errs++
		}
		a.sum += lat
		a.min = min(a.min, lat)
		a.max = max(a.max, lat)
		if t.ECID != collect.ControlECID {
			ref.minStamp = min(ref.minStamp, t.Start)
			ref.maxStamp = max(ref.maxStamp, t.Start)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, in := range infos {
		if _, ok := ref.agg[in.ID]; ok {
			ref.dataECIDs = append(ref.dataECIDs, in.ID)
		}
	}
	if ref.tuples == 0 || len(ref.dataECIDs) < 3 {
		return nil, fmt.Errorf("fixture archive holds %d tuples over %d collectors", ref.tuples, len(ref.dataECIDs))
	}
	return ref, nil
}

// makeMix draws the selective statements from the seed: a stamp window
// of 2% of the recorded span, and three collectors.
func makeMix(seed uint64, ref *reference) mixStmts {
	span := ref.maxStamp - ref.minStamp
	width := span / 50
	lo := ref.minStamp + int64(unit(mix(seed, 11))*float64(span-width))
	m := mixStmts{agg: aggSrc, lo: lo, hi: lo + width}
	m.span = fmt.Sprintf("select * where start >= %dns and start <= %dns", m.lo, m.hi)
	ids := append([]uint32(nil), ref.dataECIDs...)
	for i := 0; i < 3; i++ {
		j := i + int(mix(seed, uint64(20+i))%uint64(len(ids)-i))
		ids[i], ids[j] = ids[j], ids[i]
	}
	m.ids = ids[:3]
	m.ecids = fmt.Sprintf("select * where ecid in (%d, %d, %d)", m.ids[0], m.ids[1], m.ids[2])
	return m
}

// countRefs fills the selective statements' plain-scan row counts.
func (ref *reference) countRefs(r *eventspace.ArchiveReader, m mixStmts) error {
	_, err := r.Scan(archive.Query{}, func(t collect.TraceTuple) bool {
		if t.Start >= m.lo && t.Start <= m.hi {
			ref.spanRows++
		}
		for _, id := range m.ids {
			if t.ECID == id {
				ref.ecidRows++
			}
		}
		return true
	})
	return err
}

// aggMismatch compares an esql aggregate result with the reference.
func aggMismatch(res *query.Result, ref *reference) string {
	if len(res.Rows) != len(ref.agg) {
		return fmt.Sprintf("%d groups, reference %d", len(res.Rows), len(ref.agg))
	}
	for _, row := range res.Rows {
		a, ok := ref.agg[row.Group]
		if !ok || len(row.Vals) != 5 {
			return fmt.Sprintf("group %d unexpected", row.Group)
		}
		got := []int64{row.Vals[0].I, row.Vals[1].I, row.Vals[2].I, row.Vals[3].I, row.Vals[4].I}
		want := []int64{a.count, a.errs, a.sum, a.min, a.max}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("group %d column %d: %d, reference %d", row.Group, i, got[i], want[i])
			}
		}
	}
	return ""
}

// aqSession is the client's open state: the set-up product.
type aqSession struct {
	r     *eventspace.ArchiveReader
	infos []eventspace.CollectorInfo
	agg   *query.Stmt
	span  *query.Stmt
	ecids *query.Stmt
	alert *query.Stmt
}

func openSession(dir string, m mixStmts, tr *tracer) (*aqSession, error) {
	s := &aqSession{}
	err := tr.do("setup", 0, func(id int64) error {
		if err := tr.do("archive.open", id, func(int64) (err error) {
			s.r, err = eventspace.OpenArchive(dir)
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("archive.read_meta", id, func(int64) (err error) {
			s.infos, err = eventspace.ReadArchiveMeta(dir)
			return err
		}); err != nil {
			return err
		}
		return tr.do("query.parse", id, func(int64) (err error) {
			for _, p := range []struct {
				dst **query.Stmt
				src string
			}{{&s.agg, m.agg}, {&s.span, m.span}, {&s.ecids, m.ecids}, {&s.alert, alertStmt}} {
				if *p.dst, err = eventspace.ParseQuery(p.src); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil && s.r != nil {
		s.r.Close()
	}
	return s, err
}

// rssPasses is how many extra passes measure archive-query's memory.
const rssPasses = 9

// runArchiveQuery records the fixture, sets up the client, and runs the
// query mix in a closed loop until the time budget is spent.
func runArchiveQuery(o *opts, rep *report) (*tracer, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("archive-query-%d", o.seed))
	}
	rep.opsName, rep.latName = "passes_per_s", "mix_pass_ms"
	fx, err := recordFixture(o, tr)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fx.dir)
	rep.sample("fixture_record_s", "s", fx.recordDur.Seconds())

	// The references and the seeded statements come first; they are
	// part of neither set-up nor the timed loop.
	r0, err := eventspace.OpenArchive(fx.dir)
	if err != nil {
		return nil, err
	}
	infos, err := eventspace.ReadArchiveMeta(fx.dir)
	if err != nil {
		r0.Close()
		return nil, err
	}
	ref, err := buildReference(r0, infos)
	if err != nil {
		r0.Close()
		return nil, err
	}
	m := makeMix(o.seed, ref)
	err = ref.countRefs(r0, m)
	r0.Close()
	if err != nil {
		return nil, err
	}
	if ref.full, err = reconfig.RebuildFrontEnd(fx.dir, nil); err != nil {
		return nil, fmt.Errorf("reference full replay: %w", err)
	}
	rep.note("fixture rounds=%d tuples=%d crash_at_flush=%d span=[%d,%d] ecids=%v", fx.rounds, ref.tuples, fx.crashAt, m.lo, m.hi, m.ids)
	if o.corrupt != nil {
		if err := o.corrupt(fx.dir); err != nil {
			return nil, err
		}
	}

	var s *aqSession
	for i := 0; i < o.minSetups; i++ {
		if s != nil {
			s.r.Close()
		}
		runtime.GC()
		t0 := time.Now()
		if s, err = openSession(fx.dir, m, tr); err != nil {
			return nil, err
		}
		rep.sample("setup_s", "s", time.Since(t0).Seconds())
	}
	defer s.r.Close()

	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var passes int
	var loopWall time.Duration
	for passes < o.minPairs || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := tr.do("mix_pass", 0, func(id int64) error { return mixPass(s, fx.dir, ref, rep, tr, id) }); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		loopWall += d
		passes++
		rep.sample("mix_pass_ms", "ms", ms(d))
	}
	rep.sample("passes_per_s", "1/s", float64(passes)/loopWall.Seconds())
	// Memory is measured on extra passes, each started from a collected
	// heap with the high-water mark reset: the peak one pass needs. The
	// timed loop's own high-water mark follows where garbage collection
	// happened to fall and varies from run to run.
	// Their checks count; their latencies stay out of the timed series.
	extra := newReport()
	for i := 0; i < rssPasses; i++ {
		resetPeakRSS()
		if err := mixPass(s, fx.dir, ref, extra, nil, 0); err != nil {
			return nil, err
		}
		rep.sample("peak_rss_mb", "MB", peakRSSMB())
	}
	rep.merge(extra)
	if o.trace {
		if err := queryLayers(o, fx, rep, tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// mixPass runs the fixed mix once: the full-scan aggregate, the two
// selective selects, ReplayLastArrival, checkpoint-ladder recovery and
// full replay, checking each against the reference.
func mixPass(s *aqSession, dir string, ref *reference, rep *report, tr *tracer, parent int64) error {
	timed := func(name string, fn func() error) (float64, error) {
		t0 := time.Now()
		err := tr.do(name, parent, func(int64) error { return fn() })
		d := ms(time.Since(t0))
		rep.sample(name+"_ms", "ms", d)
		rep.ops(1, 0)
		return d, err
	}
	var res *query.Result
	d, err := timed("agg_query", func() (err error) {
		res, _, err = query.Run(s.r, s.agg)
		return err
	})
	if err != nil {
		return err
	}
	rep.sample("query_ms", "ms", d)
	bad := aggMismatch(res, ref)
	rep.check("agg-equals-plain-scan", bad == "", 1, "%s", orOK(bad, fmt.Sprintf("%d groups", len(res.Rows))))

	for _, sel := range []struct {
		name string
		stmt *query.Stmt
		want uint64
	}{{"span_select", s.span, ref.spanRows}, {"ecid_select", s.ecids, ref.ecidRows}} {
		var rows uint64
		d, err := timed(sel.name, func() error {
			_, err := query.Scan(s.r, sel.stmt, func(collect.TraceTuple) bool { rows++; return true })
			return err
		})
		if err != nil {
			return err
		}
		rep.sample("select_query_ms", "ms", d)
		rep.sample("query_ms", "ms", d)
		rep.check(sel.name+"-equals-plain-scan", rows == sel.want, 1, "%d rows, reference %d", rows, sel.want)
	}

	var la *eventspace.LastArrivalReplay
	if _, err := timed("replay_last_arrival", func() (err error) {
		la, err = eventspace.ReplayLastArrival(s.r, s.infos, eventspace.ArchiveQuery{})
		return err
	}); err != nil {
		return err
	}
	diff := weightedDiff(la.Weighted(), ref.full.Resume.Weighted)
	rep.check("replay-equals-full-replay", diff == "", 1, "%s", orOK(diff, fmt.Sprintf("%d verdicts", la.Weighted().Total())))

	var rec *reconfig.FailoverState
	if _, err := timed("recover", func() (err error) {
		rec, err = reconfig.RecoverFrontEnd(dir, nil, []*query.Stmt{s.alert})
		return err
	}); err != nil {
		return err
	}
	diff = weightedDiff(rec.Resume.Weighted, ref.full.Resume.Weighted)
	if diff == "" && rec.RoundsRecovered != ref.full.RoundsRecovered {
		diff = fmt.Sprintf("rounds %d, full replay %d", rec.RoundsRecovered, ref.full.RoundsRecovered)
	}
	if diff == "" && !rec.Checkpointed {
		diff = "recovery fell through to full replay"
	}
	rep.check("recover-equals-full-replay", diff == "", 1, "%s", orOK(diff, fmt.Sprintf("%d rounds from checkpoint %d", rec.RoundsRecovered, rec.CheckpointSeq)))

	var full *reconfig.FailoverState
	if _, err := timed("full_replay", func() (err error) {
		full, err = reconfig.RebuildFrontEnd(dir, nil)
		return err
	}); err != nil {
		return err
	}
	diff = weightedDiff(full.Resume.Weighted, ref.full.Resume.Weighted)
	rep.check("full-replay-repeats", diff == "" && full.RoundsRecovered == ref.full.RoundsRecovered, 1, "%s", orOK(diff, fmt.Sprintf("%d rounds", full.RoundsRecovered)))
	return nil
}
