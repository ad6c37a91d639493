package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// benchTuples builds n synthetic trace tuples spread over four
// collectors with monotone stamps, the shape an escope puller delivers.
func benchTuples(n int) []collect.TraceTuple {
	out := make([]collect.TraceTuple, n)
	for i := range out {
		op := paths.OpWrite
		if i%2 == 1 {
			op = paths.OpRead
		}
		out[i] = collect.TraceTuple{
			ECID:  uint32(1 + i%4),
			Op:    op,
			Seq:   uint32(i / 4),
			Start: int64(i) * 1000,
			End:   int64(i)*1000 + 700,
		}
	}
	return out
}

// BenchmarkArchiveWrite measures sustained append throughput into a
// rotating segmented archive (bytes/op = one appended batch). The CI
// zero-alloc gate pins it at 0 allocs/op.
func BenchmarkArchiveWrite(b *testing.B) {
	w, err := archive.Create(archive.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	tuples := benchTuples(256)
	b.SetBytes(collect.TupleSize * int64(len(tuples)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(tuples); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// writeBenchArchive fills a fresh archive with the bench corpus.
func writeBenchArchive(tb testing.TB, dir string, total int) *archive.Writer {
	tb.Helper()
	w, err := archive.Create(archive.Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Append(benchTuples(total)); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkArchiveScan measures full-archive query throughput over a
// pre-written store (bytes/op = the tuples scanned per iteration).
func BenchmarkArchiveScan(b *testing.B) {
	dir := b.TempDir()
	const total = 64 * 1024
	writeBenchArchive(b, dir, total)
	r, err := archive.OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(collect.TupleSize * total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := r.Scan(archive.Query{}, func(collect.TraceTuple) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n != total {
			b.Fatalf("scanned %d tuples, want %d", n, total)
		}
	}
}

// BenchmarkArchiveScanPushdown measures a selective query — an op kind
// the corpus never carries. Every block is skipped off its op
// dictionary without decoding a column, which is the ≥4x win over
// BenchmarkArchiveScan the block dictionaries exist for.
func BenchmarkArchiveScanPushdown(b *testing.B) {
	dir := b.TempDir()
	const total = 64 * 1024
	writeBenchArchive(b, dir, total)
	r, err := archive.OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	q := archive.Query{Ops: []paths.OpKind{paths.OpMode}}
	b.SetBytes(collect.TupleSize * total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := r.Scan(q, func(collect.TraceTuple) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if stats.TuplesMatched != 0 {
			b.Fatalf("pushdown query matched %d tuples", stats.TuplesMatched)
		}
	}
}

// archiveReport is BENCH_archive.json.
type archiveReport struct {
	Tuples           int     `json:"tuples"`
	TupleBytes       int     `json:"tuple_bytes"`
	WriteNS          int64   `json:"write_ns"`
	WriteMBPerSec    float64 `json:"write_mb_per_sec"`
	WriteAllocsPerOp float64 `json:"write_allocs_per_append"`
	BytesOnDisk      int64   `json:"bytes_on_disk"`
	Segments         int     `json:"segments"`
	ScanNS           int64   `json:"scan_ns"`
	ScanMBPerSec     float64 `json:"scan_mb_per_sec"`
	PushdownScanNS   int64   `json:"pushdown_scan_ns"`
	PushdownSkipped  uint64  `json:"pushdown_blocks_skipped"`
	PushdownSpeedup  float64 `json:"pushdown_speedup_vs_full_scan"`
}

// minPushdownSpeedup is the recorded floor for a dictionary-skipped
// selective scan against a full scan of the same archive.
const minPushdownSpeedup = 4

// TestRecordArchiveBench measures archive write and scan throughput and
// records them as JSON when ARCHIVE_BENCH_OUT names a file (the
// Makefile bench-archive target). Without the variable it only sanity
// checks that all paths move data. The pushdown query asks for an op
// kind the corpus never carries, so it is answered from block
// dictionaries without decoding; a recording run fails unless it beats
// a full scan of the same archive by at least minPushdownSpeedup.
func TestRecordArchiveBench(t *testing.T) {
	const total = 128 * 1024
	tuples := benchTuples(total)
	pushdown := archive.Query{Ops: []paths.OpKind{paths.OpMode}}

	dir := t.TempDir()
	w, err := archive.Create(archive.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	wStart := time.Now()
	for off := 0; off < total; off += 1024 {
		if err := w.Append(tuples[off : off+1024]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	writeDur := time.Since(wStart)
	stats := w.Stats()
	if stats.TuplesWritten != total {
		t.Fatalf("wrote %d tuples, want %d", stats.TuplesWritten, total)
	}

	// Steady-state append allocations: a warm writer with a big segment
	// (no rotation mid-measure) encoding whole blocks into reused
	// scratch.
	wa, err := archive.Create(archive.Options{
		Dir: t.TempDir(), SegmentBytes: 1 << 30, BlockTuples: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := tuples[:256]
	if err := wa.Append(batch); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := wa.Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("append allocates %.1f objects per block in steady state", allocs)
	}

	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Both scans are timed as the best of scanReps runs: one cold run
	// is dominated by page faults on the freshly allocated read buffers.
	const scanReps = 5
	var scanDur, pushDur time.Duration
	var pStats archive.ScanStats
	for i := 0; i < scanReps; i++ {
		sStart := time.Now()
		n := 0
		if _, err := r.Scan(archive.Query{}, func(collect.TraceTuple) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(sStart); i == 0 || d < scanDur {
			scanDur = d
		}
		if n != total {
			t.Fatalf("scanned %d tuples, want %d", n, total)
		}

		pStart := time.Now()
		pStats, err = r.Scan(pushdown, func(collect.TraceTuple) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(pStart); i == 0 || d < pushDur {
			pushDur = d
		}
		if pStats.TuplesMatched != 0 {
			t.Fatalf("pushdown query matched %d tuples", pStats.TuplesMatched)
		}
		if pStats.BlocksSkipped == 0 || pStats.TuplesScanned != 0 {
			t.Fatalf("pushdown decoded tuples: %+v", pStats)
		}
	}

	mbps := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(total*collect.TupleSize) / d.Seconds() / 1e6
	}
	report := archiveReport{
		Tuples:           total,
		TupleBytes:       collect.TupleSize,
		WriteNS:          writeDur.Nanoseconds(),
		WriteMBPerSec:    mbps(writeDur),
		WriteAllocsPerOp: allocs,
		BytesOnDisk:      stats.TotalBytes,
		Segments:         stats.Segments,
		ScanNS:           scanDur.Nanoseconds(),
		ScanMBPerSec:     mbps(scanDur),
		PushdownScanNS:   pushDur.Nanoseconds(),
		PushdownSkipped:  pStats.BlocksSkipped,
	}
	if pushDur > 0 {
		report.PushdownSpeedup = float64(scanDur) / float64(pushDur)
	}

	out := os.Getenv("ARCHIVE_BENCH_OUT")
	if out == "" {
		return
	}
	if report.PushdownSpeedup < minPushdownSpeedup {
		t.Errorf("pushdown scan %v vs full scan %v: %.1fx, want >= %dx",
			pushDur, scanDur, report.PushdownSpeedup, minPushdownSpeedup)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("archive bench recorded to %s (pushdown speedup %.1fx)", out, report.PushdownSpeedup)
}
