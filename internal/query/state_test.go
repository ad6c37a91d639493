package query

import (
	"reflect"
	"testing"

	"eventspace/internal/archive"
)

// stateStmts is the statement mix used by the snapshot tests: an
// ungrouped edge trigger, a grouped trigger (per-group streak/fired
// maps), and a for-N-rounds streak so snapshots land mid-streak.
func stateStmts(t *testing.T) []*Stmt {
	t.Helper()
	return []*Stmt{
		mustParse(t, "alert when count() > 1 window 2us"),
		mustParse(t, "alert when errors() > 0 by ecid window 5us"),
		mustParse(t, "alert when count() > 0 window 1us for 3 rounds"),
	}
}

// TestEngineSplitEquivalence is the checkpoint contract for the query
// engine: snapshot mid-stream, restore into a fresh engine carrying the
// same statements, feed the suffix — the alert stream (including alerts
// already fired before the split and streaks resumed across it) matches
// a straight-through engine exactly.
func TestEngineSplitEquivalence(t *testing.T) {
	tuples := testTuples()
	for _, split := range []int{0, 1, 9, 25, 44, len(tuples)} {
		full := NewEngine(nullSink{})
		full.SetExpected(3)
		for _, s := range stateStmts(t) {
			if err := full.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, tu := range tuples {
			if err := full.Offer(tu); err != nil {
				t.Fatal(err)
			}
		}

		head := NewEngine(nullSink{})
		head.SetExpected(3)
		for _, s := range stateStmts(t) {
			if err := head.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, tu := range tuples[:split] {
			if err := head.Offer(tu); err != nil {
				t.Fatal(err)
			}
		}
		st := head.State()

		tail := NewEngine(nullSink{})
		for _, s := range stateStmts(t) {
			if err := tail.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := tail.Restore(st); err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		for _, tu := range tuples[split:] {
			if err := tail.Offer(tu); err != nil {
				t.Fatal(err)
			}
		}

		if got, want := tail.Alerts(), full.Alerts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: alerts %v, want %v", split, alertKeys(got), alertKeys(want))
		}
		if !reflect.DeepEqual(tail.State(), full.State()) {
			t.Fatalf("split %d: restored engine state diverged from straight-through", split)
		}
	}
	// Sanity: the corpus must actually fire something, or the test is
	// vacuous.
	e := NewEngine(nullSink{})
	e.SetExpected(3)
	for _, s := range stateStmts(t) {
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range testTuples() {
		if err := e.Offer(tu); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Alerts()) == 0 {
		t.Fatal("corpus fired no alerts; split test proves nothing")
	}
}

// TestEngineRestoreRejectsMismatch: a snapshot only applies to an
// engine carrying the identical statements in the identical order.
func TestEngineRestoreRejectsMismatch(t *testing.T) {
	e := NewEngine(nullSink{})
	if err := e.Register(mustParse(t, "alert when count() > 1 window 2us")); err != nil {
		t.Fatal(err)
	}
	st := e.State()

	other := NewEngine(nullSink{})
	if err := other.Register(mustParse(t, "alert when count() > 5 window 2us")); err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(st); err == nil {
		t.Fatal("mismatched statement accepted")
	}

	empty := NewEngine(nullSink{})
	if err := empty.Restore(st); err == nil {
		t.Fatal("statement-count mismatch accepted")
	}
}

// TestReplayFromMatchesFullReplay proves the recovery fast path: engine
// state checkpointed mid-archive plus a
// suffix-only scan from the matching cursor regenerates exactly the
// alert stream of a full-archive replay (and of the live run).
func TestReplayFromMatchesFullReplay(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		w, err := archive.Create(archive.Options{
			Dir: dir, SegmentBytes: 600, BlockTuples: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		stmts := stateStmts(t)
		eng := NewEngine(w)
		eng.SetExpected(3)
		for _, s := range stmts {
			if err := eng.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		tuples := testTuples()
		const split = 28
		if err := eng.AppendRaw(encodeBatch(tuples[:split])); err != nil {
			t.Fatal(err)
		}
		// Checkpoint instant: everything appended so far is durable,
		// the cursor covers it, and the engine snapshot is taken at
		// the same stream position.
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		cur := w.Position()
		st := eng.State()

		if err := eng.AppendRaw(encodeBatch(tuples[split:])); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		live := eng.Alerts()
		if len(live) == 0 {
			t.Fatal("no alerts fired during the live run")
		}

		r, err := archive.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		fullRegen, err := Replay(r, stmts, 3)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := ReplayFrom(r, cur, stmts, st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fullRegen, live) {
			t.Errorf("full replay %v != live %v", alertKeys(fullRegen), alertKeys(live))
		}
		if !reflect.DeepEqual(fast, live) {
			t.Errorf("checkpointed replay %v != live %v", alertKeys(fast), alertKeys(live))
		}
	})
}

// TestEngineStateCanonical: snapshots of behaviorally identical engines
// are bit-identical — zero streaks and unfired latches are compressed
// out, so a restored-then-resnapshotted state round-trips exactly.
func TestEngineStateCanonical(t *testing.T) {
	mk := func() *Engine {
		e := NewEngine(nullSink{})
		e.SetExpected(3)
		for _, s := range stateStmts(t) {
			if err := e.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	e := mk()
	for _, tu := range testTuples() {
		if err := e.Offer(tu); err != nil {
			t.Fatal(err)
		}
	}
	st := e.State()
	re := mk()
	if err := re.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.State(), st) {
		t.Fatal("restore/resnapshot did not round-trip the canonical state")
	}
}
