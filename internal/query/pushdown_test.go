package query

import (
	"reflect"
	"strings"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
)

// TestPushdownConservative is the honesty property: for every select
// statement in the corpus, scanning with the extracted pushdown must
// yield exactly the tuples (or aggregate results) of a full scan —
// the pushdown may only skip data the evaluator would reject anyway.
// Runs with small segments so the header index and the block
// dictionaries both get a chance to skip.
func TestPushdownConservative(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		r := writeFixtureArchive(t, t.TempDir(), 600)
		for _, src := range readCorpus(t) {
			if strings.HasPrefix(src, "!") {
				continue
			}
			stmt, err := Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			if stmt.Alert {
				continue
			}
			if stmt.Star {
				collect := func(q archive.Query) []uint32 {
					var seqs []uint32
					_, err := ScanQuery(r, stmt, q, func(tu collect.TraceTuple) bool {
						seqs = append(seqs, tu.Seq)
						return true
					})
					if err != nil {
						t.Fatalf("scan %q: %v", src, err)
					}
					return seqs
				}
				pushed := collect(stmt.Pushdown())
				full := collect(archive.Query{})
				if !reflect.DeepEqual(pushed, full) {
					t.Errorf("%q: pushdown seqs %v != full scan %v", src, pushed, full)
				}
				continue
			}
			pushed, _, err := RunQuery(r, stmt, stmt.Pushdown())
			if err != nil {
				t.Fatalf("run %q: %v", src, err)
			}
			full, _, err := RunQuery(r, stmt, archive.Query{})
			if err != nil {
				t.Fatalf("full run %q: %v", src, err)
			}
			if !reflect.DeepEqual(pushed, full) {
				t.Errorf("%q: pushdown result %+v != full scan %+v", src, pushed, full)
			}
		}
	})
}

// TestPushdownSkipsSegments: a selective stamp predicate must actually
// skip segments via the header index — the mechanism behind the ≥3×
// speedup the query benchmark pins down.
func TestPushdownSkipsSegments(t *testing.T) {
	r := writeFixtureArchive(t, t.TempDir(), 600)
	stmt := mustParse(t, "select * where start >= 25us")
	stats, err := Scan(r, stmt, func(collect.TraceTuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsSkipped == 0 {
		t.Fatalf("no segments skipped: %+v", stats)
	}
	if stats.TuplesScanned >= 60 {
		t.Fatalf("pushdown read the whole archive: %+v", stats)
	}
}

// TestPushdownShapes pins the extraction rules on statements that do
// not go through the corpus fixture.
func TestPushdownShapes(t *testing.T) {
	cases := []struct {
		src  string
		want archive.Query
	}{
		// Disjunction of ecids unions; conjunction intersects.
		{"select * where (ecid == 1 or ecid == 2) and ecid in (2, 3)",
			archive.Query{ECIDs: []uint32{2}}},
		// ret/seq/latency/!= cannot be pushed down.
		{"select * where ret < 0", archive.Query{}},
		{"select * where ecid != 1", archive.Query{}},
		// An or with one unconstrained arm degrades to the universe.
		{"select * where ecid == 1 or ret < 0", archive.Query{}},
		// Strict bounds tighten by one; end <= caps MaxStamp.
		{"select * where start > 10us and end <= 30us",
			archive.Query{MinStamp: 10001, MaxStamp: 30000}},
		// not(...) is never pushed down, even over pushable leaves.
		{"select * where not (ecid == 1)", archive.Query{}},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		got := stmt.Pushdown()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: pushdown %+v, want %+v", tc.src, got, tc.want)
		}
	}
}
