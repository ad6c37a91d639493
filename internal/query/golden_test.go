package query

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventspace/internal/collect"
)

var update = flag.Bool("update", false, "rewrite the golden corpus output")

// readCorpus returns the corpus statements (including the '!'-prefixed
// must-fail entries, prefix kept).
func readCorpus(t testing.TB) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "corpus.esql"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out
}

// renderGolden evaluates every corpus statement against the fixture
// archive and renders the pinned output.
func renderGolden(t *testing.T, srcs []string) string {
	r := writeFixtureArchive(t, t.TempDir(), 512)
	var b strings.Builder
	for _, src := range srcs {
		mustFail := strings.HasPrefix(src, "!")
		if mustFail {
			src = strings.TrimSpace(strings.TrimPrefix(src, "!"))
		}
		fmt.Fprintf(&b, ">> %s\n", src)
		stmt, err := Parse(src)
		if err != nil {
			if !mustFail {
				t.Errorf("corpus statement %q failed to parse: %v", src, err)
			}
			fmt.Fprintf(&b, "error: %v\n\n", err)
			continue
		}
		if mustFail {
			t.Errorf("corpus statement %q parsed but was marked must-fail", src)
		}
		fmt.Fprintf(&b, "stmt: %s\n", stmt)
		pq := stmt.Pushdown()
		fmt.Fprintf(&b, "push: ecids=%v ops=%v min=%d max=%d\n", pq.ECIDs, pq.Ops, pq.MinStamp, pq.MaxStamp)
		switch {
		case stmt.Alert:
			fmt.Fprintf(&b, "hash: %016x\n", stmt.Hash())
			alerts, err := Replay(r, []*Stmt{stmt}, 3)
			if err != nil {
				t.Errorf("replay %q: %v", src, err)
				continue
			}
			for _, a := range alerts {
				fmt.Fprintf(&b, "alert: seq=%d group=%d at=%d\n", a.Seq, a.Group, a.At)
			}
			fmt.Fprintf(&b, "%d alerts\n", len(alerts))
		case stmt.Star:
			stats, err := Scan(r, stmt, func(tu collect.TraceTuple) bool {
				fmt.Fprintf(&b, "row: ec=%d op=%s ret=%d seq=%d start=%d end=%d\n",
					tu.ECID, tu.Op, tu.Ret, tu.Seq, tu.Start, tu.End)
				return true
			})
			if err != nil {
				t.Errorf("scan %q: %v", src, err)
				continue
			}
			fmt.Fprintf(&b, "%d matched, %d scanned, %d/%d segments skipped\n",
				stats.TuplesMatched, stats.TuplesScanned, stats.SegmentsSkipped, stats.Segments)
		default:
			res, stats, err := Run(r, stmt)
			if err != nil {
				t.Errorf("run %q: %v", src, err)
				continue
			}
			fmt.Fprintf(&b, "cols: %s\n", strings.Join(res.Cols, " | "))
			for _, row := range res.Rows {
				var vals []string
				for _, v := range row.Vals {
					vals = append(vals, v.String())
				}
				fmt.Fprintf(&b, "row: group=%d bucket=%d  %s\n", row.Group, row.Bucket, strings.Join(vals, " | "))
			}
			fmt.Fprintf(&b, "%d matched, %d/%d segments skipped\n",
				stats.TuplesMatched, stats.SegmentsSkipped, stats.Segments)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenCorpus pins the parser, canonicalizer, pushdown extractor
// and evaluator end to end: every corpus statement's canonical form,
// extracted archive query, and result rows over the fixture archive.
// Refresh with `go test ./internal/query -run Golden -update`.
func TestGoldenCorpus(t *testing.T) {
	got := renderGolden(t, readCorpus(t))
	goldenPath := filepath.Join("testdata", "corpus.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden corpus output changed (re-run with -update if intended)\n--- got ---\n%s", got)
	}
}

// TestCanonicalRoundTrip: for every parsing corpus statement, the
// canonical rendering re-parses to the same canonical rendering and the
// same hash (the identity recorded in alert tuples).
func TestCanonicalRoundTrip(t *testing.T) {
	for _, src := range readCorpus(t) {
		if strings.HasPrefix(src, "!") {
			continue
		}
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		canon := stmt.String()
		stmt2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, src, err)
		}
		if got := stmt2.String(); got != canon {
			t.Errorf("canonical not a fixed point: %q -> %q", canon, got)
		}
		if stmt2.Hash() != stmt.Hash() {
			t.Errorf("hash changed across round trip of %q", src)
		}
	}
}

// FuzzParseQuery fuzzes the parser, seeded with the corpus: any input
// that parses must canonicalize to a fixed point that re-parses.
func FuzzParseQuery(f *testing.F) {
	for _, src := range readCorpus(f) {
		f.Add(strings.TrimSpace(strings.TrimPrefix(src, "!")))
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		canon := stmt.String()
		stmt2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, src, err)
		}
		if got := stmt2.String(); got != canon {
			t.Fatalf("canonical not a fixed point: %q -> %q (from %q)", canon, got, src)
		}
	})
}
