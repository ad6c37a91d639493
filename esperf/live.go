package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"eventspace"
	"eventspace/internal/metrics"
)

// liveSpec is one live workload: a testbed, the gsum trees the modelled
// threads alternate over, and what is attached to the monitored copy.
type liveSpec struct {
	name     string
	testbed  func() eventspace.TestbedSpec
	trees    int
	traceCap int
	// archive attaches the distributed load-balance monitor and a
	// checkpointed archive recorder with one standing alert (lb-archive);
	// otherwise statsm is attached (statsm-lan).
	archive bool
	// chunk is the rounds per timed RunWorkload call; chunks per pair.
	chunk, chunks int
	// stall is the straggler's per-round delay.
	stall time.Duration
}

// alertStmt is lb-archive's standing continuous query.
const alertStmt = "alert when max(latency) > 2 * mean(latency) by ecid every 1ms window 1ms"

func lbArchiveSpec(s sizes) liveSpec {
	return liveSpec{
		name:    "lb-archive",
		testbed: func() eventspace.TestbedSpec { return eventspace.SingleTin(16) },
		trees:   1, archive: true,
		chunk: s.lbChunk, chunks: s.lbChunks,
		stall: 100 * time.Microsecond,
	}
}

func statsmLANSpec(s sizes) liveSpec {
	return liveSpec{
		name:     "statsm-lan",
		testbed:  func() eventspace.TestbedSpec { return eventspace.LANMulti(16, 16) },
		trees:    2,
		traceCap: 400,
		chunk:    s.smChunk, chunks: s.smChunks,
		stall: 100 * time.Microsecond,
	}
}

// sysRun is one system's run through a pair: the unmonitored twin or
// the monitored copy.
type sysRun struct {
	setup, build, attach time.Duration
	wall, model          []time.Duration // per chunk
	msgs                 uint64
	rounds               int
	gatherRate           float64
	threadGatherRate     float64
	roundsObservedFrac   float64
	ingestShed           uint64
	cosched              uint64
	failedChunks         int
	tailRounds           int // awaitRounds' window-opening rounds
	snap                 *metrics.Snapshot
	dir                  string
	// lb-archive outputs checked against archive replay.
	weighted *eventspace.WeightedTree
	alerts   []eventspace.AlertTuple
	// statsm-lan outputs.
	statsRounds, statsWant uint64
	statsBad               string
}

// schedule is the seeded straggler Delay: in every round one thread,
// drawn from the seed, stalls for stall before contributing.
func schedule(seed uint64, threads int, offset int, stall time.Duration) func(thread, it int) time.Duration {
	return func(thread, it int) time.Duration {
		if int(mix(seed, uint64(offset+it))%uint64(threads)) == thread {
			return stall
		}
		return 0
	}
}

// runLive runs twin/monitored pairs until the time budget is spent and
// fills rep with the live metrics.
func runLive(o *opts, spec liveSpec, rep *report) (*tracer, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-%d", spec.name, o.seed))
	}
	rep.opsName, rep.latName = "rounds_per_s", "round_wall_ms"
	resetPeakRSS()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var twinWall, monWall time.Duration
	var rounds, tailRounds int
	var last *sysRun
	for pair := 0; pair < o.minPairs || time.Now().Before(deadline); pair++ {
		seed := mix(o.seed, uint64(pair))
		runtime.GC()
		twin, err := runSystem(spec, seed, false, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("pair %d twin: %w", pair, err)
		}
		runtime.GC()
		mon, err := runSystem(spec, seed, true, tr, nil)
		if err != nil {
			return nil, fmt.Errorf("pair %d monitored: %w", pair, err)
		}
		if err := checkLive(spec, mon, rep, tr); err != nil {
			return nil, err
		}
		if last != nil {
			os.RemoveAll(last.dir)
		}
		last = mon
		tw, tm, mm := sumDur(twin.wall), sumDur(twin.model), sumDur(mon.model)
		twinWall += tw
		monWall += sumDur(mon.wall)
		rounds += mon.rounds
		tailRounds += mon.tailRounds
		rep.ops(mon.rounds, mon.failedChunks*spec.chunk*spec.trees)
		r := float64(mon.rounds)
		rep.sample("setup_s", "s", mon.setup.Seconds())
		rep.sample("core.build_ms", "ms", ms(mon.build))
		rep.sample("core.attach_ms", "ms", ms(mon.attach))
		rep.sample("model_allreduce_us", "us", us(mm)/r)
		rep.sample("model_overhead_pct", "%", 100*float64(mm-tm)/float64(tm))
		rep.sample("gather_rate", "1", mon.gatherRate)
		rep.sample("vclock.sim_wall_us_per_round", "us", us(tw)/r)
		rep.sample("vnet.msgs_per_round", "count", (float64(mon.msgs)-float64(twin.msgs))/r)
		for i, w := range mon.wall {
			per := float64(spec.chunk * spec.trees)
			rep.sample("round_wall_ms", "ms", ms(w)/per)
			rep.sample("monitor_cpu_us_per_round", "us", us(w-twin.wall[i])/per)
		}
		if spec.archive {
			rep.sample("monitor.rounds_observed_frac", "1", mon.roundsObservedFrac)
			rep.sample("monitor.ingest_shed", "count", float64(mon.ingestShed))
		} else {
			rep.sample("escope.thread_gather_rate", "1", mon.threadGatherRate)
		}
		rep.sample("cosched.windows_per_round", "count", float64(mon.cosched)/r)
	}
	// Set-up is repeated a few more times so its median is steady.
	for len(rep.named["setup_s"].d) < o.minSetups {
		d, err := setupOnly(spec)
		if err != nil {
			return nil, err
		}
		rep.sample("setup_s", "s", d.Seconds())
	}
	rep.sample("rounds_per_s", "1/s", float64(rounds)/monWall.Seconds())
	rep.sample("peak_rss_mb", "MB", peakRSSMB())
	rep.note("pairs=%d rounds=%d monitored_wall=%v twin_wall=%v tail_rounds=%d", len(rep.named["gather_rate"].d), rounds, monWall, twinWall, tailRounds)
	if o.trace {
		if err := liveLayers(o, spec, last, rep, tr); err != nil {
			return nil, err
		}
	} else {
		os.RemoveAll(last.dir)
	}
	return tr, nil
}

// build builds the spec's system and trees: instrumented when
// monitored, the bare twin otherwise. reg, when set, is the system's
// self-metrics registry (traced runs).
func build(spec liveSpec, monitored bool, reg *eventspace.MetricsRegistry) (*eventspace.System, []*eventspace.Tree, error) {
	sys, err := eventspace.New(spec.testbed(), eventspace.CoschedAfterUnblock)
	if err != nil {
		return nil, nil, err
	}
	sys.UseMetrics(reg)
	trees := make([]*eventspace.Tree, spec.trees)
	for i := range trees {
		trees[i], err = sys.BuildTree(eventspace.TreeSpec{
			Name: fmt.Sprintf("T%d", i+1), Fanout: 8, ThreadsPerHost: 1,
			Instrument: monitored, TraceBufCap: spec.traceCap,
		})
		if err != nil {
			sys.Close()
			return nil, nil, err
		}
	}
	return sys, trees, nil
}

// monitors is what a live spec attaches to the monitored copy.
type monitors struct {
	lb  *eventspace.LoadBalance
	rec *eventspace.ArchiveRecorder
	sm  *eventspace.Statsm
}

func attach(spec liveSpec, sys *eventspace.System, trees []*eventspace.Tree, dir string, cps *eventspace.CrashPoints) (monitors, error) {
	var m monitors
	var err error
	cfg := eventspace.DefaultMonitorConfig()
	if spec.archive {
		if m.lb, err = sys.AttachLoadBalance(trees[0], eventspace.Distributed, cfg); err != nil {
			return m, err
		}
		m.rec, err = sys.AttachArchiveCheckpointed(trees[0], cfg.PullInterval,
			eventspace.ArchiveOptions{Dir: dir, CrashPoints: cps}, eventspace.CheckpointConfig{}, alertStmt)
		return m, err
	}
	cfg.ReadBatch = 5
	cfg.PullInterval = 400 * time.Microsecond
	cfg.IntermediateCap = spec.traceCap
	m.sm, err = sys.AttachStatsm(trees[0], cfg)
	return m, err
}

// setupOnly times one monitored set-up and tears it down unused.
func setupOnly(spec liveSpec) (time.Duration, error) {
	dir, err := os.MkdirTemp(workDir, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var d time.Duration
	err = eventspace.RunVirtual(func() error {
		t0 := time.Now()
		sys, trees, err := build(spec, true, nil)
		if err != nil {
			return err
		}
		defer sys.Close()
		if _, err := attach(spec, sys, trees, dir, nil); err != nil {
			return err
		}
		d = time.Since(t0)
		return nil
	})
	return d, err
}

// runSystem runs one side of a pair under its own virtual clock. cps,
// when set, arms the archive writer with a crash plan (archive-query's
// fixture).
func runSystem(spec liveSpec, seed uint64, monitored bool, tr *tracer, cps *eventspace.CrashPoints) (*sysRun, error) {
	out := &sysRun{}
	if monitored && spec.archive {
		var err error
		if out.dir, err = os.MkdirTemp(workDir, "live-"); err != nil {
			return nil, err
		}
	}
	side := "twin"
	if monitored {
		side = "monitored"
	}
	err := tr.do(side, 0, func(root int64) error {
		return eventspace.RunVirtual(func() error {
			var reg *eventspace.MetricsRegistry
			if monitored && tr != nil {
				reg = eventspace.NewMetricsRegistry()
			}
			t0 := time.Now()
			var sys *eventspace.System
			var trees []*eventspace.Tree
			err := tr.do("core.build", root, func(int64) (err error) {
				sys, trees, err = build(spec, monitored, reg)
				return err
			})
			if err != nil {
				return err
			}
			defer sys.Close()
			out.build = time.Since(t0)
			var m monitors
			if monitored {
				t1 := time.Now()
				err := tr.do("core.attach", root, func(int64) (err error) {
					m, err = attach(spec, sys, trees, out.dir, cps)
					return err
				})
				if err != nil {
					return err
				}
				out.attach = time.Since(t1)
			}
			out.setup = time.Since(t0)
			net := sys.Testbed().Net
			msgs0 := net.Messages()
			threads := len(trees[0].Ports)
			for c := 0; c < spec.chunks; c++ {
				wl := eventspace.Workload{Trees: trees, Iterations: spec.chunk,
					Delay: schedule(seed, threads, c*spec.chunk, spec.stall)}
				w0 := time.Now()
				var d time.Duration
				err := tr.do("core.run_workload", root, func(int64) (err error) {
					d, err = sys.RunWorkload(wl)
					return err
				})
				out.wall = append(out.wall, time.Since(w0))
				out.model = append(out.model, d)
				if err != nil {
					out.failedChunks++
				}
			}
			out.msgs = net.Messages() - msgs0
			out.rounds = spec.chunk * spec.chunks * spec.trees
			if !monitored {
				return nil
			}
			return tr.do("drain", root, func(int64) error { return finishMonitored(spec, sys, trees, m, out, reg) })
		})
	})
	return out, err
}

// awaitRounds lets a monitor's analysis, which trails the application,
// catch up: it waits in model time until n reaches want, and gives up
// after ten real seconds (the output checks then report the gap).
//
// The monitors' analysis threads are coscheduled: they run only in the
// admission window a collective opens on their host once all its local
// contributors are released. The release fires before the released
// collectors have written their trace tuples, so a tuple can miss its
// own round's window and wait for the next one; after the timed rounds
// no next window would open, and the monitors do not analyse what is
// left when they stop. Between waits the driver therefore runs single
// rounds of tail, an uninstrumented tree over the same hosts, whenever
// the monitor has made no progress for stallWaits waits: each opens a
// window on every host without adding tuples to the monitored tree. It
// returns the tail rounds run.
func awaitRounds(tail *eventspace.Tree, sys *eventspace.System, n func() uint64, want uint64) (int, error) {
	const stallWaits = 20
	deadline := time.Now().Add(10 * time.Second)
	rounds, still := 0, 0
	for n() < want && time.Now().Before(deadline) {
		before := n()
		eventspace.SleepOutside(time.Millisecond)
		if n() != before {
			still = 0
			continue
		}
		if still++; still < stallWaits {
			continue
		}
		still = 0
		if _, err := sys.RunWorkload(eventspace.Workload{Trees: []*eventspace.Tree{tail}, Iterations: 1}); err != nil {
			return rounds, fmt.Errorf("tail round: %w", err)
		}
		rounds++
	}
	return rounds, nil
}

// finishMonitored lets the monitors catch up, stops the recorder and
// samples the monitors' accounting.
func finishMonitored(spec liveSpec, sys *eventspace.System, trees []*eventspace.Tree, m monitors, out *sysRun, reg *eventspace.MetricsRegistry) error {
	for _, p := range trees[0].Ports {
		out.cosched += sys.Cosched().For(p.Host).Windows()
	}
	tail, err := sys.BuildTree(eventspace.TreeSpec{Name: "tail", Fanout: 8, ThreadsPerHost: 1})
	if err != nil {
		return err
	}
	var stopErr error
	want := uint64(spec.chunk*spec.chunks) * uint64(len(trees[0].Nodes))
	if spec.archive {
		if out.tailRounds, err = awaitRounds(tail, sys, m.lb.RoundsObserved, want); err != nil {
			return err
		}
		out.roundsObservedFrac = float64(m.lb.RoundsObserved()) / float64(want)
		out.gatherRate = m.lb.GatherRate()
		out.ingestShed = m.lb.IngestStats().ShedTuples
		m.rec.Stop()
		if err := m.rec.Err(); err != nil {
			// Still sample the run: archive-query's fixture crashes on
			// purpose and wants the accounting.
			stopErr = fmt.Errorf("recorder: %w", err)
		}
		out.alerts = m.rec.Alerts()
		m.lb.Stop()
		out.weighted = m.lb.Weighted()
	} else {
		if out.tailRounds, err = awaitRounds(tail, sys, m.sm.RoundsAnalyzed, want); err != nil {
			return err
		}
		out.statsWant = want
		out.roundsObservedFrac = float64(m.sm.RoundsAnalyzed()) / float64(want)
		out.gatherRate = m.sm.WrapperGatherRate()
		out.threadGatherRate = m.sm.ThreadGatherRate()
		m.sm.Stop()
		out.statsRounds = m.sm.RoundsAnalyzed()
		out.statsBad = badWrapperStats(m.sm.Tree(), trees[0])
	}
	if reg != nil {
		s := reg.Snapshot()
		out.snap = &s
	}
	return stopErr
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
