package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/query"
)

// benchQuerySrc is the statement the parse benchmark measures: pushable
// predicates plus a residual the evaluator must apply per row.
const benchQuerySrc = "select * where ecid in (1, 2) and start >= 1ms and latency > 500ns limit 100000"

func mustParseBench(tb testing.TB, src string) *query.Stmt {
	tb.Helper()
	s, err := query.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// writeQueryBenchArchive lays the bench corpus out across many small
// segments so the header index has real skipping to do.
func writeQueryBenchArchive(tb testing.TB, dir string, total int) *archive.Reader {
	tb.Helper()
	w, err := archive.Create(archive.Options{
		Dir: dir, SegmentBytes: 64 << 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tuples := benchTuples(total)
	for off := 0; off < total; off += 1024 {
		if err := w.Append(tuples[off : off+1024]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	r, err := archive.OpenReader(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkQueryParse measures esql parse cost (lexer, parser, type
// check) for a representative statement.
func BenchmarkQueryParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(benchQuerySrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEval measures evaluator throughput: a full archive scan
// with a non-pushable residual predicate, so every tuple is decoded and
// judged by the row evaluator.
func BenchmarkQueryEval(b *testing.B) {
	const total = 64 * 1024
	r := writeQueryBenchArchive(b, b.TempDir(), total)
	stmt := mustParseBench(b, "select * where latency > 600ns")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.ScanQuery(r, stmt, archive.Query{}, func(collect.TraceTuple) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// bestOf runs fn n times and returns the fastest wall time — the usual
// guard against a cold cache or a scheduling hiccup inflating one run.
func bestOf(n int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestRecordQueryBench measures esql parse cost, evaluator throughput,
// and the static-pushdown speedup on a selective stamp-range predicate,
// asserting the pushdown wins by at least 3x. QUERY_BENCH_OUT names a
// JSON report file (the Makefile bench-query target).
func TestRecordQueryBench(t *testing.T) {
	const total = 128 * 1024
	r := writeQueryBenchArchive(t, t.TempDir(), total)

	// Parse cost.
	const parses = 20000
	pStart := time.Now()
	for i := 0; i < parses; i++ {
		mustParseBench(t, benchQuerySrc)
	}
	parseNS := time.Since(pStart).Nanoseconds() / parses

	// Evaluator throughput: full scan, residual predicate on every row.
	evalStmt := mustParseBench(t, "select * where latency > 600ns")
	evalDur := bestOf(3, func() {
		if _, err := query.ScanQuery(r, evalStmt, archive.Query{}, func(collect.TraceTuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
	})
	evalRows := float64(total) / evalDur.Seconds()

	// Aggregation throughput: grouped percentiles over the whole corpus.
	aggStmt := mustParseBench(t, "select count(), p99(latency) by ecid")
	aggDur := bestOf(3, func() {
		if _, _, err := query.RunQuery(r, aggStmt, archive.Query{}); err != nil {
			t.Fatal(err)
		}
	})
	aggRows := float64(total) / aggDur.Seconds()

	// Pushdown vs full scan on a selective predicate: the stamp range
	// covers 1/32 of the corpus, so the header index should skip the
	// overwhelming majority of segments.
	sel := mustParseBench(t, "select * where start >= 100ms and start < 104ms")
	count := func(q archive.Query) (int, archive.ScanStats) {
		n := 0
		stats, err := query.ScanQuery(r, sel, q, func(collect.TraceTuple) bool {
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, stats
	}
	nFull, _ := count(archive.Query{})
	nPush, pushStats := count(sel.Pushdown())
	if nFull != nPush || nFull == 0 {
		t.Fatalf("pushdown changed results: full %d, pushed %d", nFull, nPush)
	}
	if pushStats.SegmentsSkipped == 0 {
		t.Fatalf("selective scan skipped nothing: %+v", pushStats)
	}
	fullDur := bestOf(3, func() { count(archive.Query{}) })
	pushDur := bestOf(3, func() { count(sel.Pushdown()) })
	speedup := float64(fullDur) / float64(pushDur)
	if speedup < 3 {
		t.Errorf("pushdown speedup %.1fx, want >= 3x (full %v, pushed %v)", speedup, fullDur, pushDur)
	}

	out := os.Getenv("QUERY_BENCH_OUT")
	if out == "" {
		return
	}
	report := map[string]any{
		"statement":         benchQuerySrc,
		"parse_ns_op":       parseNS,
		"eval_rows_per_sec": evalRows,
		"agg_rows_per_sec":  aggRows,
		"selective_scan": map[string]any{
			"predicate":        sel.String(),
			"tuples_matched":   nPush,
			"full_scan_ns":     fullDur.Nanoseconds(),
			"pushdown_ns":      pushDur.Nanoseconds(),
			"pushdown_speedup": speedup,
			"segments":         pushStats.Segments,
			"segments_skipped": pushStats.SegmentsSkipped,
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("query bench recorded to %s (parse %dns/op, pushdown %.1fx)", out, parseNS, speedup)
}
