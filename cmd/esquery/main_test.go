package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// writeTestArchive builds a small archive with tuples at known stamps:
// ten tuples on ECID 1, Start = i microseconds (0..9), plus one mode
// control tuple at 4us. Small segments force several rotations so the
// stamp-range pushdown has segments to skip.
func writeTestArchive(t *testing.T, dir string) {
	t.Helper()
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		start := int64(i) * 1000
		err := w.Append([]collect.TraceTuple{{
			ECID: 1, Op: paths.OpRead, Seq: uint32(i), Start: start, End: start + 100,
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	err = w.Append([]collect.TraceTuple{collect.EncodeMode(collect.ModeTuple{
		ScopeHash: collect.HashName("s"), From: 0, To: 1, Seq: 1, At: 4000,
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// TestFilterSinceUntil exercises the -since/-until stamp-range flags:
// only tuples whose Start falls inside the model-time window are
// printed, and segments wholly outside the window are skipped by the
// header-index pushdown.
func TestFilterSinceUntil(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)

	out := capture(t, func() error {
		return runFilter([]string{"-dir", dir, "-ops", "read", "-since", "2us", "-until", "5us"})
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Tuples at 2000, 3000, 4000, 5000 ns plus the trailing stats line.
	if len(lines) != 5 {
		t.Fatalf("filter printed %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []string{"start         2000", "start         5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("filter output missing %q:\n%s", want, out)
		}
	}
	for _, reject := range []string{"start         1000", "start         6000"} {
		if strings.Contains(out, reject) {
			t.Errorf("filter output leaked out-of-range tuple %q:\n%s", reject, out)
		}
	}
	if !strings.Contains(out, "4 tuples matched") {
		t.Errorf("filter stats line wrong:\n%s", out)
	}
	// The small segments guarantee at least one was skipped unscanned.
	if strings.Contains(out, "0/") {
		t.Errorf("stamp range skipped no segments (pushdown not engaged):\n%s", out)
	}
}

// TestSummarizeSinceUntil checks the same window through summarize, and
// that -since/-until override -min/-max.
func TestSummarizeSinceUntil(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)

	out := capture(t, func() error {
		return runSummarize([]string{"-dir", dir, "-min", "999999", "-since", "7us"})
	})
	if !strings.Contains(out, "3 tuples matched") {
		t.Errorf("summarize window [7us,∞) should match stamps 7000..9000:\n%s", out)
	}
	if !strings.Contains(out, "7000") {
		t.Errorf("summarize first-start should be 7000:\n%s", out)
	}
}

// TestFilterModeOp checks that mode control tuples are selectable and
// rendered with their op name.
func TestFilterModeOp(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)

	out := capture(t, func() error {
		return runFilter([]string{"-dir", dir, "-ops", "mode"})
	})
	if !strings.Contains(out, "mode") || !strings.Contains(out, "1 tuples matched") {
		t.Errorf("mode filter should match exactly the control tuple:\n%s", out)
	}
}

// TestInfoListsSegments checks that info lists every segment with its
// state and tuple count, across a reopen that starts a second segment.
func TestInfoListsSegments(t *testing.T) {
	dir := t.TempDir()
	for i, tu := range []collect.TraceTuple{
		{ECID: 1, Op: paths.OpRead, Start: 1, End: 2},
		{ECID: 2, Op: paths.OpWrite, Start: 3, End: 4},
	} {
		w, err := archive.Create(archive.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]collect.TraceTuple{tu}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	out := capture(t, func() error { return runInfo([]string{"-dir", dir}) })
	if !strings.Contains(out, "2 segments, 2 tuples") ||
		strings.Count(out, "sealed") != 2 || strings.Count(out, "1 tuples") != 2 {
		t.Errorf("info should list two sealed one-tuple segments:\n%s", out)
	}
}

// TestNegativeSinceRejected checks flag validation.
func TestNegativeSinceRejected(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	if err := runFilter([]string{"-dir", dir, "-since", "-1us"}); err == nil {
		t.Fatal("negative -since accepted")
	}
}
