package reconfig

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"eventspace/internal/analysis"
	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/query"
)

// failoverInfos fabricates collector metadata for two 3-contributor
// nodes, mirroring the checkpoint package's test topology.
func failoverInfos() []archive.CollectorInfo {
	infos := []archive.CollectorInfo{
		{ID: 10, Name: "coll-a", Role: collect.RoleCollective, Tree: "T", Node: "a", Contributor: -1},
		{ID: 20, Name: "coll-b", Role: collect.RoleCollective, Tree: "T", Node: "b", Contributor: -1},
	}
	for i := 0; i < 3; i++ {
		infos = append(infos,
			archive.CollectorInfo{ID: uint32(1 + i), Role: collect.RoleContributor, Tree: "T", Node: "a", Contributor: i},
			archive.CollectorInfo{ID: uint32(4 + i), Role: collect.RoleContributor, Tree: "T", Node: "b", Contributor: i},
		)
	}
	return infos
}

func failoverStream(rounds int) []collect.TraceTuple {
	rng := rand.New(rand.NewSource(11))
	var tuples []collect.TraceTuple
	for seq := uint32(1); seq <= uint32(rounds); seq++ {
		base := int64(10_000 + 1000*int64(seq))
		for _, node := range []struct {
			coll  uint32
			ecids []uint32
		}{{10, []uint32{1, 2, 3}}, {20, []uint32{4, 5, 6}}} {
			tuples = append(tuples, collect.TraceTuple{
				ECID: node.coll, Op: paths.OpWrite, Seq: seq,
				Start: base + 100, End: base + 200,
			})
			for i, id := range node.ecids {
				jit := rng.Int63n(90)
				tuples = append(tuples, collect.TraceTuple{
					ECID: id, Op: paths.OpWrite, Seq: seq,
					Start: base + jit + int64(i), End: base + 300 + jit,
				})
			}
		}
	}
	rng.Shuffle(len(tuples), func(i, j int) {
		if d := i - j; d < 10 && d > -10 {
			tuples[i], tuples[j] = tuples[j], tuples[i]
		}
	})
	return tuples
}

func failoverBatch(ts []collect.TraceTuple) []byte {
	buf := make([]byte, len(ts)*collect.TupleSize)
	for i := range ts {
		ts[i].EncodeTo(buf[i*collect.TupleSize:])
	}
	return buf
}

var failoverAlerts = []string{
	"alert when count() > 3 window 2us",
	"alert when count() > 0 by ecid window 1us for 2 rounds",
}

func failoverStmts(t testing.TB) []*query.Stmt {
	t.Helper()
	stmts := make([]*query.Stmt, 0, len(failoverAlerts))
	for _, src := range failoverAlerts {
		st, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	return stmts
}

// buildCheckpointedArchive records the test stream through the real
// recorder sink chain — checkpointer in front of an optional query
// engine in front of the writer — and leaves a pruned checkpoint chain
// next to the sealed segments.
func buildCheckpointedArchive(t testing.TB, dir string, withEngine bool) {
	t.Helper()
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 2000, BlockTuples: 16})
	if err != nil {
		t.Fatal(err)
	}
	infos := failoverInfos()
	if err := archive.WriteMeta(dir, infos); err != nil {
		t.Fatal(err)
	}
	var inner checkpoint.Sink = w
	var eng *query.Engine
	if withEngine {
		eng = query.NewEngine(w)
		eng.SetExpected(8)
		for _, st := range failoverStmts(t) {
			if err := eng.Register(st); err != nil {
				t.Fatal(err)
			}
		}
		inner = eng
	}
	ck, err := checkpoint.New(w, inner, eng, infos, checkpoint.Config{EveryTuples: 64, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	tuples := failoverStream(60)
	for i := 0; i < len(tuples); i += 24 {
		end := i + 24
		if end > len(tuples) {
			end = len(tuples)
		}
		if err := ck.AppendRaw(failoverBatch(tuples[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func weightedEqual(t *testing.T, got, want *monitor.WeightedTree) {
	t.Helper()
	gn, wn := got.Nodes(), want.Nodes()
	sort.Strings(gn)
	sort.Strings(wn)
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("weighted nodes %v, want %v", gn, wn)
	}
	for _, node := range wn {
		if !reflect.DeepEqual(got.Counts(node), want.Counts(node)) {
			t.Fatalf("weighted counts for %s diverged:\n got %v\nwant %v", node, got.Counts(node), want.Counts(node))
		}
	}
}

func statsEqual(t *testing.T, got, want *monitor.AnalysisTree) {
	t.Helper()
	gids, wids := got.IDs(), want.IDs()
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
	if !reflect.DeepEqual(gids, wids) {
		t.Fatalf("stats tree ids %v, want %v", gids, wids)
	}
	kinds := []int{analysis.KindDown, analysis.KindUp, analysis.KindTotal, analysis.KindArrivalWait, analysis.KindDepartureWait}
	for _, id := range wids {
		for _, kind := range kinds {
			w, wok := want.Get(id, kind)
			g, gok := got.Get(id, kind)
			if gok != wok || g != w {
				t.Fatalf("stats record (%d,%d): got %v,%v want %v,%v", id, kind, g, gok, w, wok)
			}
		}
	}
}

// TestRecoverFrontEndMatchesRebuild: the checkpointed fast path must
// hand off exactly the state full replay rebuilds —
// while reading only the archive suffix behind the newest checkpoint.
func TestRecoverFrontEndMatchesRebuild(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		buildCheckpointedArchive(t, dir, false)
		rb, err := RebuildFrontEnd(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := RecoverFrontEnd(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.Checkpointed || rc.CheckpointSeq == 0 || rc.Fallbacks != 0 {
			t.Fatalf("expected clean checkpointed recovery, got %+v", rc)
		}
		if rc.ChainEntries != 3 {
			t.Fatalf("chain entries %d, want pruned to 3", rc.ChainEntries)
		}
		if rc.TuplesSkipped == 0 {
			t.Fatal("checkpointed recovery skipped no tuples — fast path not taken")
		}
		if rc.BytesReplayed >= rb.BytesReplayed {
			t.Fatalf("checkpointed recovery replayed %d bytes, full replay %d — no saving",
				rc.BytesReplayed, rb.BytesReplayed)
		}
		if !rc.Resume.ReRead {
			t.Fatal("crash recovery handoff must re-read the retained windows")
		}
		if rb.Resume.ReRead {
			t.Fatal("clean-seal failover handoff must not re-read")
		}
		if rc.RoundsRecovered != rb.RoundsRecovered || rc.RoundsRecovered == 0 {
			t.Fatalf("rounds recovered %d, want %d", rc.RoundsRecovered, rb.RoundsRecovered)
		}
		weightedEqual(t, rc.Resume.Weighted, rb.Resume.Weighted)
		if !reflect.DeepEqual(rc.Resume.Floors, rb.Resume.Floors) {
			t.Fatalf("floors diverged: %v vs %v", rc.Resume.Floors, rb.Resume.Floors)
		}
		statsEqual(t, rc.Stats, rb.Stats)
	})
}

// TestRecoverFrontEndEngineResumesMidStreak: with standing statements,
// recovery restores the query engine from the checkpoint and advances
// it over the suffix — ending in exactly the state a full replay of the
// archive produces, streaks and dedup memory included.
func TestRecoverFrontEndEngineResumesMidStreak(t *testing.T) {
	dir := t.TempDir()
	buildCheckpointedArchive(t, dir, true)
	stmts := failoverStmts(t)
	rc, err := RecoverFrontEnd(dir, nil, stmts)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Checkpointed {
		t.Fatalf("expected checkpointed recovery, got %+v", rc)
	}
	if rc.Engine == nil {
		t.Fatal("no engine state recovered")
	}
	// Destroy the chain: the same recovery must now take the full-replay
	// rung and still produce the identical engine state.
	entries, err := checkpoint.List(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("chain: %v %v", entries, err)
	}
	for _, e := range entries {
		if err := os.Remove(e.Path); err != nil {
			t.Fatal(err)
		}
	}
	full, err := RecoverFrontEnd(dir, nil, stmts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Checkpointed || full.ChainEntries != 0 {
		t.Fatalf("expected full-replay rung, got %+v", full)
	}
	if full.Engine == nil {
		t.Fatal("full replay produced no engine state")
	}
	if !reflect.DeepEqual(*rc.Engine, *full.Engine) {
		t.Fatalf("recovered engine state diverged from full replay:\n got %+v\nwant %+v", *rc.Engine, *full.Engine)
	}
	weightedEqual(t, rc.Resume.Weighted, full.Resume.Weighted)
}

// TestRecoverFrontEndFallbackLadder: a torn chain head falls back to
// the previous checkpoint; a fully torn chain falls back to full
// replay. Both rungs reproduce the rebuild state exactly.
func TestRecoverFrontEndFallbackLadder(t *testing.T) {
	dir := t.TempDir()
	buildCheckpointedArchive(t, dir, false)
	rb, err := RebuildFrontEnd(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := checkpoint.List(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("chain: %v %v", entries, err)
	}
	// Tear the newest frame.
	buf, err := os.ReadFile(entries[2].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[2].Path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := RecoverFrontEnd(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Checkpointed || rc.Fallbacks != 1 || rc.CheckpointSeq != entries[1].Seq {
		t.Fatalf("expected fallback to seq %d, got %+v", entries[1].Seq, rc)
	}
	weightedEqual(t, rc.Resume.Weighted, rb.Resume.Weighted)
	statsEqual(t, rc.Stats, rb.Stats)

	// Tear the whole chain: the ladder bottoms out at full replay.
	for _, e := range entries[:2] {
		buf, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.Path, buf[:len(buf)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rc, err = RecoverFrontEnd(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Checkpointed || rc.Fallbacks != 3 || rc.TuplesSkipped != 0 {
		t.Fatalf("expected full-replay rung after 3 fallbacks, got %+v", rc)
	}
	if rc.ChainEntries != 3 {
		t.Fatalf("chain entries %d, want 3 (torn frames still on disk)", rc.ChainEntries)
	}
	weightedEqual(t, rc.Resume.Weighted, rb.Resume.Weighted)
	statsEqual(t, rc.Stats, rb.Stats)
}

// TestFailoverSurfacesRepairContext is the regression test for the
// silently-discarded repair context: rebuilding from a crash-damaged
// archive (torn tail from an injected block-flush crash, plus a
// header-less segment file left by a crashed rotation) must surface the
// truncation, the skipped file, and the reader's close error in the
// handoff instead of dropping them on the floor.
func TestFailoverSurfacesRepairContext(t *testing.T) {
	dir := t.TempDir()
	cps := &archive.CrashPoints{Seed: 9, Specs: []archive.CrashSpec{{Site: archive.CrashBlockFlush, Count: 3}}}
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 4000, BlockTuples: 16, CrashPoints: cps})
	if err != nil {
		t.Fatal(err)
	}
	infos := failoverInfos()
	if err := archive.WriteMeta(dir, infos); err != nil {
		t.Fatal(err)
	}
	tuples := failoverStream(40)
	var crashErr error
	for i := 0; i < len(tuples) && crashErr == nil; i += 16 {
		end := i + 16
		if end > len(tuples) {
			end = len(tuples)
		}
		if crashErr = w.Append(tuples[i:end]); crashErr == nil {
			crashErr = w.Flush()
		}
	}
	if !errors.Is(crashErr, archive.ErrInjectedCrash) {
		t.Fatalf("crash did not fire: %v", crashErr)
	}
	// A crashed rotation's leftover: a segment file too short to hold a
	// header. Readers must skip it and say so.
	junk := filepath.Join(dir, "seg-00009999.eseg")
	if err := os.WriteFile(junk, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := RebuildFrontEnd(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornSegments == 0 || st.RepairedBytes == 0 {
		t.Fatalf("torn tail not surfaced: %+v", st)
	}
	found := false
	for _, f := range st.SkippedFiles {
		if filepath.Base(f) == filepath.Base(junk) {
			found = true
		}
	}
	if !found {
		t.Fatalf("skipped file not surfaced: %v", st.SkippedFiles)
	}
	if st.CloseErr == nil {
		t.Fatal("reader close error (skipped-file report) not surfaced")
	}
	if st.RoundsRecovered == 0 {
		t.Fatal("damaged archive recovered no rounds at all")
	}

	// The checkpointed path surfaces the same context.
	rc, err := RecoverFrontEnd(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.TornSegments != st.TornSegments || rc.CloseErr == nil {
		t.Fatalf("recover path dropped repair context: %+v", rc)
	}
	weightedEqual(t, rc.Resume.Weighted, st.Resume.Weighted)
}

// TestRebuildFrontEndScansOnce: full replay is the empty-checkpoint
// rung, so it feeds both shadows and the engine from one archive scan.
func TestRebuildFrontEndScansOnce(t *testing.T) {
	dir := t.TempDir()
	buildCheckpointedArchive(t, dir, true)
	reg := metrics.New()
	if _, err := RebuildFrontEnd(dir, reg); err != nil {
		t.Fatal(err)
	}
	var scans uint64
	for _, op := range reg.Snapshot().ByKind(metrics.KindArchive) {
		if strings.HasPrefix(op.Name, "archive-scan(") {
			scans += op.Ops
		}
	}
	if scans != 1 {
		t.Fatalf("full replay scanned the archive %d times, want 1", scans)
	}
}

// BenchmarkRebuildFrontEnd times one full replay of a checkpointed
// columnar archive (60 rounds over two 3-contributor nodes).
func BenchmarkRebuildFrontEnd(b *testing.B) {
	dir := b.TempDir()
	buildCheckpointedArchive(b, dir, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RebuildFrontEnd(dir, nil); err != nil {
			b.Fatal(err)
		}
	}
}
