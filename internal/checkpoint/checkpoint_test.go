package checkpoint

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/query"
)

// testInfos fabricates collector metadata for two 3-contributor nodes:
// node "a" (collective ECID 10, contributors 1-3) and node "b"
// (collective 20, contributors 4-6).
func testInfos() []archive.CollectorInfo {
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

// testStream fabricates the matching tuple stream: rounds of collective
// plus contributor tuples, shuffled within a small horizon so rounds
// interleave and some are always pending when a checkpoint lands.
func testStream(rounds int) []collect.TraceTuple {
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

func encodeBatch(ts []collect.TraceTuple) []byte {
	buf := make([]byte, len(ts)*collect.TupleSize)
	for i := range ts {
		ts[i].EncodeTo(buf[i*collect.TupleSize:])
	}
	return buf
}

// snapshotFromStream builds a nontrivial checkpoint by running the
// shadows (and a query engine) over a prefix of the test stream.
func snapshotFromStream(t testing.TB, n int) Checkpoint {
	t.Helper()
	infos := testInfos()
	laPorts, err := archive.LastArrivalPorts(infos)
	if err != nil {
		t.Fatal(err)
	}
	stPorts, err := archive.StatsPorts(infos)
	if err != nil {
		t.Fatal(err)
	}
	la, err := monitor.NewLastArrivalReplay(laPorts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := monitor.NewStatsReplay(stPorts, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(nil)
	eng.SetExpected(8)
	for _, src := range []string{
		"alert when count() > 3 window 2us",
		"alert when count() > 0 by ecid window 1us for 2 rounds",
	} {
		st, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(st); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range testStream(40)[:n] {
		la.Feed(tu)
		stats.Feed(tu)
		if err := eng.Offer(tu); err != nil {
			t.Fatal(err)
		}
	}
	return Checkpoint{
		Seq: 7, At: 123456,
		Cursor:    archive.Cursor{Tuples: uint64(n), Segment: 3, SegTuples: 17},
		LA:        la.State(),
		Stats:     stats.State(),
		HasEngine: true,
		Engine:    eng.State(),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 37, 151, 320} {
		cp := snapshotFromStream(t, n)
		got, err := Decode(Encode(cp))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("n=%d: round-trip diverged:\n got %+v\nwant %+v", n, got, cp)
		}
		// Without the engine section too (recorder without queries).
		cp.HasEngine = false
		cp.Engine = query.EngineState{}
		got, err = Decode(Encode(cp))
		if err != nil {
			t.Fatalf("n=%d no-engine: %v", n, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("n=%d: no-engine round-trip diverged", n)
		}
	}
}

// TestEncodeCanonical: two identical states encode bit-identically —
// the property that lets the chaos matrix compare recovered state by
// re-checkpointing it.
func TestEncodeCanonical(t *testing.T) {
	a := Encode(snapshotFromStream(t, 151))
	b := Encode(snapshotFromStream(t, 151))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical snapshots encoded differently")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	frame := Encode(snapshotFromStream(t, 80))
	// Every truncation — torn writes — must be rejected, not panic.
	for i := 0; i < len(frame); i++ {
		if _, err := Decode(frame[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	// Every single-byte corruption must be rejected (one of the CRCs
	// covers every byte of the frame).
	for i := 0; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

// TestCheckpointRecoveryEquivalence is the tentpole proof at package
// level: shadows restored from the newest
// checkpoint and fed only the archive suffix after its cursor end
// byte-identical to a full replay of the whole archive — and the suffix
// is a small fraction of the archive.
func TestCheckpointRecoveryEquivalence(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 2000, BlockTuples: 16})
		if err != nil {
			t.Fatal(err)
		}
		infos := testInfos()
		ck, err := New(w, w, nil, infos, Config{EveryTuples: 64, Keep: 3})
		if err != nil {
			t.Fatal(err)
		}
		tuples := testStream(60)
		for i := 0; i < len(tuples); i += 24 {
			end := i + 24
			if end > len(tuples) {
				end = len(tuples)
			}
			if err := ck.AppendRaw(encodeBatch(tuples[i:end])); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cks := ck.Stats()
		if cks.Written < 4 {
			t.Fatalf("only %d checkpoints written", cks.Written)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		entries, err := List(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("chain holds %d entries, want pruned to 3", len(entries))
		}
		cp, info, ok := LoadNewest(dir)
		if !ok || info.Skipped != 0 {
			t.Fatalf("LoadNewest ok=%v info=%+v", ok, info)
		}
		if cp.Seq != cks.Seq {
			t.Fatalf("newest checkpoint seq %d, want %d", cp.Seq, cks.Seq)
		}

		r, err := archive.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		fullLA, _, err := archive.ReplayLastArrival(r, infos, archive.Query{})
		if err != nil {
			t.Fatal(err)
		}
		fullStats, _, err := archive.ReplayStats(r, infos, archive.Query{}, 0)
		if err != nil {
			t.Fatal(err)
		}

		laPorts, _ := archive.LastArrivalPorts(infos)
		stPorts, _ := archive.StatsPorts(infos)
		la, err := monitor.NewLastArrivalReplayFrom(laPorts, cp.LA)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := monitor.NewStatsReplayFrom(stPorts, cp.Stats)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := r.ScanFrom(cp.Cursor, archive.Query{}, func(tu collect.TraceTuple) bool {
			la.Feed(tu)
			stats.Feed(tu)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if scan.TuplesSkipped != cp.Cursor.Tuples {
			t.Fatalf("suffix scan skipped %d tuples, cursor covers %d", scan.TuplesSkipped, cp.Cursor.Tuples)
		}

		if !reflect.DeepEqual(la.State(), fullLA.State()) {
			t.Fatal("checkpoint+suffix load-balance state diverged from full replay")
		}
		if !reflect.DeepEqual(stats.State(), fullStats.State()) {
			t.Fatal("checkpoint+suffix statistics state diverged from full replay")
		}
		if la.Lost() != 0 || fullLA.Lost() != 0 {
			t.Fatalf("lost rounds: fast %d full %d", la.Lost(), fullLA.Lost())
		}
	})
}

// TestCheckpointerCrashFallsBack: an injected crash mid-checkpoint-write
// leaves a torn chain head; the checkpointer goes sticky-dead, recovery
// skips the torn frame, falls back to the previous checkpoint, and
// still reconstructs exactly the full-replay state.
func TestCheckpointerCrashFallsBack(t *testing.T) {
	dir := t.TempDir()
	cps := &archive.CrashPoints{Seed: 5, Specs: []archive.CrashSpec{{Site: archive.CrashCheckpoint, Count: 2}}}
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 4000, BlockTuples: 16})
	if err != nil {
		t.Fatal(err)
	}
	infos := testInfos()
	ck, err := New(w, w, nil, infos, Config{EveryTuples: 48, Keep: 3, CrashPoints: cps})
	if err != nil {
		t.Fatal(err)
	}
	tuples := testStream(60)
	var crashErr error
	for i := 0; i < len(tuples) && crashErr == nil; i += 16 {
		end := i + 16
		if end > len(tuples) {
			end = len(tuples)
		}
		crashErr = ck.AppendRaw(encodeBatch(tuples[i:end]))
	}
	if !errors.Is(crashErr, archive.ErrInjectedCrash) {
		t.Fatalf("crash did not fire: %v", crashErr)
	}
	if err := ck.AppendRaw(encodeBatch(tuples[:4])); !errors.Is(err, archive.ErrInjectedCrash) {
		t.Fatalf("checkpointer not sticky-dead after crash: %v", err)
	}
	if got := cps.Fired(); len(got) != 1 || got[0] != archive.CrashCheckpoint {
		t.Fatalf("fired sites %v", got)
	}
	// The process died: the writer is abandoned as-is. A reopen models
	// the recovery-side writer takeover (torn-tail truncation).
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cp, info, ok := LoadNewest(dir)
	if !ok {
		t.Fatal("no valid checkpoint survived")
	}
	if info.Skipped != 1 || cp.Seq != 1 {
		t.Fatalf("expected fallback past 1 torn frame to seq 1; got skipped=%d seq=%d", info.Skipped, cp.Seq)
	}

	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fullLA, _, err := archive.ReplayLastArrival(r, infos, archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	laPorts, _ := archive.LastArrivalPorts(infos)
	la, err := monitor.NewLastArrivalReplayFrom(laPorts, cp.LA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ScanFrom(cp.Cursor, archive.Query{}, func(tu collect.TraceTuple) bool {
		la.Feed(tu)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la.State(), fullLA.State()) {
		t.Fatal("fallback recovery diverged from full replay")
	}
}

// TestLoadNewestAllTorn: when every chain entry is damaged, LoadNewest
// reports no checkpoint — the caller's cue for full replay.
func TestLoadNewestAllTorn(t *testing.T) {
	dir := t.TempDir()
	cp := snapshotFromStream(t, 40)
	for seq := uint32(1); seq <= 2; seq++ {
		cp.Seq = seq
		if _, err := write(dir, cp, nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := List(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("List: %v %v", entries, err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.Path, buf[:len(buf)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, info, ok := LoadNewest(dir); ok || info.Skipped != 2 {
		t.Fatalf("damaged chain yielded a checkpoint (info %+v)", info)
	}
}

func BenchmarkCheckpointEncodeTuples(b *testing.B) {
	ts := make([]collect.TraceTuple, 256)
	for i := range ts {
		ts[i] = collect.TraceTuple{ECID: uint32(i), Op: paths.OpWrite, Seq: uint32(i), Start: int64(i), End: int64(i + 5)}
	}
	dst := make([]byte, len(ts)*collect.TupleSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeTuples(dst, ts)
	}
}
