package bench

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
	"eventspace/internal/reconfig"
)

// recoveryInfos is the bench topology: two 3-contributor nodes, the
// same shape the checkpoint and reconfig test suites replay.
func recoveryInfos() []archive.CollectorInfo {
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

// writeRecoveryArchive records rounds of the bench stream through a
// checkpointer (cadence every 512 data tuples) and abandons the archive
// the way a crash does: no final checkpoint, so recovery replays a real
// suffix, not an empty one.
func writeRecoveryArchive(tb testing.TB, dir string, rounds int) {
	tb.Helper()
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 1 << 14})
	if err != nil {
		tb.Fatal(err)
	}
	infos := recoveryInfos()
	if err := archive.WriteMeta(dir, infos); err != nil {
		tb.Fatal(err)
	}
	ck, err := checkpoint.New(w, w, nil, infos, checkpoint.Config{EveryTuples: 512, Keep: 3})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]collect.TraceTuple, 0, 8)
	buf := make([]byte, 8*collect.TupleSize)
	for seq := uint32(1); seq <= uint32(rounds); seq++ {
		base := int64(10_000 + 1000*int64(seq))
		batch = batch[:0]
		for _, node := range []struct {
			coll  uint32
			ecids []uint32
		}{{10, []uint32{1, 2, 3}}, {20, []uint32{4, 5, 6}}} {
			batch = append(batch, collect.TraceTuple{
				ECID: node.coll, Op: paths.OpWrite, Seq: seq, Start: base + 100, End: base + 200,
			})
			for i, id := range node.ecids {
				jit := rng.Int63n(90)
				batch = append(batch, collect.TraceTuple{
					ECID: id, Op: paths.OpWrite, Seq: seq, Start: base + jit + int64(i), End: base + 300 + jit,
				})
			}
		}
		for i := range batch {
			batch[i].EncodeTo(buf[i*collect.TupleSize:])
		}
		if err := ck.AppendRaw(buf[:len(batch)*collect.TupleSize]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

// recoveryReport is one archive-size row of BENCH_recovery.json.
type recoveryReport struct {
	Rounds            int     `json:"rounds"`
	ArchiveBytes      int64   `json:"archive_bytes"`
	FullNS            int64   `json:"full_replay_ns"`
	FullBytes         uint64  `json:"full_replay_bytes"`
	FastNS            int64   `json:"checkpointed_ns"`
	FastBytes         uint64  `json:"checkpointed_bytes"`
	TuplesSkipped     uint64  `json:"tuples_skipped"`
	BytesSavedFactor  float64 `json:"bytes_saved_factor"`
	SpeedupWallClock  float64 `json:"speedup_wall_clock"`
	CheckpointSeq     uint32  `json:"checkpoint_seq"`
	CheckpointEntries int     `json:"chain_entries"`
}

// TestRecordRecoveryBench measures front-end recovery cost as the
// archive grows, full replay versus the checkpointed fast path, and
// records the table as JSON when RECOVERY_BENCH_OUT names a file (the
// Makefile bench-recovery target). The acceptance floor rides along
// unconditionally: at the largest archive size the checkpointed path
// must replay at least 5x fewer bytes than full replay — the bound that makes recovery time a function of the
// checkpoint cadence, not of archive size.
func TestRecordRecoveryBench(t *testing.T) {
	sizes := []int{200, 800, 3200}
	var reports []*recoveryReport

	for _, rounds := range sizes {
		dir := t.TempDir()
		writeRecoveryArchive(t, dir, rounds)

		fStart := time.Now()
		full, err := reconfig.RebuildFrontEnd(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		fullDur := time.Since(fStart)

		cStart := time.Now()
		fast, err := reconfig.RecoverFrontEnd(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		fastDur := time.Since(cStart)

		if !fast.Checkpointed {
			t.Fatalf("%d: recovery did not take the checkpoint fast path: %+v", rounds, fast)
		}
		if fast.RoundsRecovered != full.RoundsRecovered {
			t.Fatalf("%d: fast path recovered %d rounds, full %d", rounds, fast.RoundsRecovered, full.RoundsRecovered)
		}
		if fast.BytesReplayed == 0 || full.BytesReplayed == 0 {
			t.Fatalf("%d: degenerate replay accounting (fast %d, full %d)", rounds, fast.BytesReplayed, full.BytesReplayed)
		}
		factor := float64(full.BytesReplayed) / float64(fast.BytesReplayed)

		var archiveBytes int64
		r, err := archive.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range r.Segments() {
			archiveBytes += s.Bytes
		}
		r.Close()

		reports = append(reports, &recoveryReport{
			Rounds:            rounds,
			ArchiveBytes:      archiveBytes,
			FullNS:            fullDur.Nanoseconds(),
			FullBytes:         full.BytesReplayed,
			FastNS:            fastDur.Nanoseconds(),
			FastBytes:         fast.BytesReplayed,
			TuplesSkipped:     fast.TuplesSkipped,
			BytesSavedFactor:  factor,
			SpeedupWallClock:  float64(fullDur.Nanoseconds()) / float64(fastDur.Nanoseconds()),
			CheckpointSeq:     fast.CheckpointSeq,
			CheckpointEntries: fast.ChainEntries,
		})

		if rounds == sizes[len(sizes)-1] && factor < 5 {
			t.Errorf("%d rounds: checkpointed recovery replayed %d bytes vs full %d — %.1fx, want >= 5x",
				rounds, fast.BytesReplayed, full.BytesReplayed, factor)
		}
	}

	out := os.Getenv("RECOVERY_BENCH_OUT")
	if out == "" {
		return
	}
	report := map[string]any{
		"checkpoint_every_tuples": 512,
		"chain_keep":              3,
		"sizes":                   reports,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	last := reports[len(reports)-1]
	t.Logf("recovery bench recorded to %s (largest archive: %.1fx fewer bytes replayed)", out, last.BytesSavedFactor)
}
