// Front-end failover: when the monitor front-end itself is lost, its
// in-memory analysis state (the weighted tree, the per-node round joins,
// the statistics streams) dies with it — but the trace archive it sealed
// survives. This file rebuilds that state deterministically by replaying
// the archive through the exact same joins the live monitor ran, and
// packages it as a handoff a replacement monitor is seeded from
// (monitor.NewLoadBalanceFrom / monitor.NewStatsmFrom).
//
// One replay routine does all of it: it starts the monitor shadows (and
// the continuous-query engine) from a checkpoint, or fresh, and feeds
// them all from a single archive scan behind the checkpoint's cursor.
// Full replay is the empty-checkpoint rung of that routine: zero cursor,
// fresh shadows, one scan of the whole archive.
//
//   - RebuildFrontEnd: full replay of a cleanly sealed archive — O(archive)
//     recovery, the pre-checkpoint contract.
//   - RecoverFrontEnd: the checkpoint ladder. It walks the sidecar
//     checkpoint chain newest-first, restores the shadows from the first
//     rung that validates, and replays only the archive suffix after the
//     checkpoint's cursor — O(suffix) recovery. Every failure on a rung
//     (torn frame, CRC mismatch, cursor drift after retention, port-roster
//     mismatch, corrupt join state) falls back to the next older rung and
//     ultimately to full replay; damage degrades recovery time, never its
//     result.
//
// The determinism contract: the replay must lose no rounds (Lost() == 0).
// Then the replacement's weighted tree continues exactly where the dead
// front-end's stopped — replaying the failover run's complete archive
// afterwards reproduces the live output byte for byte.
package reconfig

import (
	"fmt"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/query"
)

// FailoverState is the archive-rebuilt front-end state handoff.
type FailoverState struct {
	// Resume seeds a replacement load-balance monitor: the weighted tree
	// as of the seal, plus per-node join floors.
	Resume *monitor.LoadBalanceResume
	// Stats seeds a replacement statistics monitor (StatsReplay.Tree).
	Stats *monitor.AnalysisTree
	// RoundsRecovered is the number of last-arrival verdicts rebuilt.
	RoundsRecovered uint64
	// TuplesFed / TuplesMatched account the replay's input.
	TuplesFed     uint64
	TuplesMatched uint64

	// Checkpointed reports whether a checkpoint fast path was taken;
	// CheckpointSeq is the chain rung that validated, and Fallbacks how
	// many newer rungs were rejected (torn, corrupt, or stale) first.
	// ChainEntries is the on-disk chain length.
	Checkpointed  bool
	CheckpointSeq uint32
	Fallbacks     int
	ChainEntries  int
	// TuplesSkipped / BytesReplayed / BytesSkipped account the suffix
	// scan: what the checkpoint spared recovery from reading.
	TuplesSkipped uint64
	BytesReplayed uint64
	BytesSkipped  uint64

	// Engine is the continuous-query engine state as of the end of the
	// replay — restored from the checkpoint and advanced over the suffix
	// — ready to be restored into a resumed recorder's engine so alert
	// streaks continue mid-streak. Nil when no statements were supplied
	// or the recovery path had no engine snapshot to start from.
	Engine *query.EngineState

	// Repair context the reader surfaced while opening the crashed
	// archive. TornSegments/RepairedBytes count torn tails truncated at
	// reopen; SkippedFiles lists header-less segment files left by a
	// crash during rotation; CloseErr is the reader's damage report
	// (non-nil exactly when files were skipped). None of these fail the
	// rebuild — the damage is survivable by design — but silently
	// dropping them hides what the crash cost.
	TornSegments  int
	RepairedBytes int64
	SkippedFiles  []string
	CloseErr      error
}

// RebuildFrontEnd replays a sealed archive directory into a failover
// handoff — the full-replay path, one scan of the whole archive. reg,
// when set, records the rebuild in self-metrics (a KindReconfig op plus
// the reconfig.failovers counter); nil disables. It fails when the
// archive's joins evicted rounds — a lossy rebuild would silently
// double-count on resume, so it is refused outright.
func RebuildFrontEnd(dir string, reg *metrics.Registry) (*FailoverState, error) {
	start := hrtime.Now()
	st, err := rebuildFrontEnd(dir, reg)
	if reg != nil {
		reg.Op(metrics.KindReconfig, "failover("+dir+")").Record(hrtime.Since(start), 0, err)
	}
	if err == nil {
		reg.Counter("reconfig.failovers").Inc()
	}
	return st, err
}

func rebuildFrontEnd(dir string, reg *metrics.Registry) (*FailoverState, error) {
	infos, err := archive.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("reconfig: failover: archive %s has no collector metadata", dir)
	}
	r, err := archive.OpenReaderMetrics(dir, reg)
	if err != nil {
		return nil, err
	}
	st, err := replay(r, infos, nil, nil)
	if err != nil {
		r.Close()
		return nil, err
	}
	finishRepair(st, r)
	return st, nil
}

// RecoverFrontEnd rebuilds a crashed front end through the checkpoint
// ladder: newest valid checkpoint plus archive suffix, falling back
// rung by rung to full replay. stmts, when non-nil, must be the
// recorder's standing alert statements; the returned state then carries
// the query engine's recovered state so alerts resume mid-streak. The
// handoff's Resume.ReRead is set: a crashed front end has a gather gap
// (tuples still in collector buffers), so the replacement re-reads the
// retained windows with the floors blocking any double count.
func RecoverFrontEnd(dir string, reg *metrics.Registry, stmts []*query.Stmt) (*FailoverState, error) {
	start := hrtime.Now()
	st, err := recoverFrontEnd(dir, reg, stmts)
	if reg != nil {
		reg.Op(metrics.KindReconfig, "recover("+dir+")").Record(hrtime.Since(start), 0, err)
	}
	if err == nil {
		reg.Counter("reconfig.recoveries").Inc()
		if st.Checkpointed {
			reg.Counter("reconfig.recoveries.checkpointed").Inc()
		}
	}
	return st, err
}

func recoverFrontEnd(dir string, reg *metrics.Registry, stmts []*query.Stmt) (*FailoverState, error) {
	infos, err := archive.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("reconfig: recover: archive %s has no collector metadata", dir)
	}
	r, err := archive.OpenReaderMetrics(dir, reg)
	if err != nil {
		return nil, err
	}
	entries, err := checkpoint.List(dir)
	if err != nil {
		entries = nil // an unlistable chain is just an absent chain
	}
	fallbacks := 0
	for i := len(entries) - 1; i >= 0; i-- {
		cp, err := checkpoint.Load(entries[i].Path)
		if err != nil {
			fallbacks++
			continue
		}
		st, err := replay(r, infos, &cp, stmts)
		if err != nil {
			fallbacks++
			continue
		}
		st.Checkpointed = true
		st.CheckpointSeq = cp.Seq
		st.Fallbacks = fallbacks
		st.ChainEntries = len(entries)
		st.Resume.ReRead = true
		finishRepair(st, r)
		return st, nil
	}
	st, err := replay(r, infos, nil, stmts)
	if err != nil {
		r.Close()
		return nil, err
	}
	st.Fallbacks = fallbacks
	st.ChainEntries = len(entries)
	st.Resume.ReRead = true
	finishRepair(st, r)
	return st, nil
}

// replay is every rung of the ladder: start the last-arrival and
// statistics shadows, and the query engine when statements are
// supplied, from cp — or fresh when cp is nil — and feed all three from
// one scan of the archive after cp's cursor (the whole archive when cp
// is nil). Any mismatch — roster drift, corrupt join state, cursor
// invalidated by retention, torn data before the cursor — errors, and
// the caller falls back a rung.
func replay(r *archive.Reader, infos []archive.CollectorInfo, cp *checkpoint.Checkpoint, stmts []*query.Stmt) (*FailoverState, error) {
	laPorts, err := archive.LastArrivalPorts(infos)
	if err != nil {
		return nil, err
	}
	stPorts, err := archive.StatsPorts(infos)
	if err != nil {
		return nil, err
	}
	var rep *monitor.LastArrivalReplay
	var sr *monitor.StatsReplay
	if cp == nil {
		rep, err = monitor.NewLastArrivalReplay(laPorts)
		if err == nil {
			sr, err = monitor.NewStatsReplay(stPorts, 0)
		}
	} else {
		rep, err = monitor.NewLastArrivalReplayFrom(laPorts, cp.LA)
		if err == nil {
			sr, err = monitor.NewStatsReplayFrom(stPorts, cp.Stats)
		}
	}
	if err != nil {
		return nil, err
	}
	if len(stmts) > 0 && cp != nil && !cp.HasEngine {
		// The caller wants the engine recovered but this checkpoint never
		// snapshotted one (it predates the statements). Fall back a rung
		// rather than hand back a cold engine as if it were recovered.
		return nil, fmt.Errorf("reconfig: recover: checkpoint %d has no engine snapshot", cp.Seq)
	}
	var eng *query.Engine
	if len(stmts) > 0 {
		eng = query.NewEngine(nil)
		for _, s := range stmts {
			if err := eng.Register(s); err != nil {
				return nil, err
			}
		}
		if cp != nil {
			if err := eng.Restore(cp.Engine); err != nil {
				return nil, err
			}
		} else {
			// The coverage() roster must match the crashed recorder's,
			// which was the archived collector set.
			eng.SetExpected(len(infos))
		}
	}
	var offerErr error
	feed := func(t collect.TraceTuple) bool {
		rep.Feed(t)
		sr.Feed(t)
		if eng != nil {
			if err := eng.Offer(t); err != nil {
				offerErr = err
				return false
			}
		}
		return true
	}
	var scan archive.ScanStats
	if cp == nil {
		scan, err = r.Scan(archive.Query{}, feed)
	} else {
		scan, err = r.ScanFrom(cp.Cursor, archive.Query{}, feed)
	}
	if err != nil {
		return nil, err
	}
	if offerErr != nil {
		return nil, offerErr
	}
	if lost := rep.Lost(); lost > 0 {
		return nil, fmt.Errorf("reconfig: replay evicted %d rounds; the handoff would not be faithful", lost)
	}
	fed, matched := rep.Fed()
	st := &FailoverState{
		Resume:          rep.Resume(),
		Stats:           sr.Tree(),
		RoundsRecovered: rep.Weighted().Total(),
		TuplesFed:       fed,
		TuplesMatched:   matched,
		TuplesSkipped:   scan.TuplesSkipped,
		BytesReplayed:   scan.BytesScanned,
		BytesSkipped:    scan.BytesSkipped,
	}
	if eng != nil {
		es := eng.State()
		st.Engine = &es
	}
	return st, nil
}

// finishRepair folds the reader's damage report into the handoff and
// releases the reader. Before checkpointed recovery this context was
// silently discarded: the reader was never closed, so header-less
// skipped files went unreported, and torn-tail truncations never
// reached the caller.
func finishRepair(st *FailoverState, r *archive.Reader) {
	for _, s := range r.Segments() {
		if s.Torn {
			st.TornSegments++
			st.RepairedBytes += s.TornBytes
		}
	}
	st.SkippedFiles = r.SkippedFiles()
	st.CloseErr = r.Close()
}
