package archive

import (
	"math"
	"os"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// TestColumnarBlockRoundTrip pins the codec's losslessness: batches of
// every shape — near-monotonic stamps, adversarial overflow stamps,
// more distinct ECIDs than the dictionary holds — must decode back
// exactly.
func TestColumnarBlockRoundTrip(t *testing.T) {
	batches := map[string][]collect.TraceTuple{
		"single": {tuple(1, 0, 10, 20)},
		"monotonic": func() []collect.TraceTuple {
			var ts []collect.TraceTuple
			for i := 0; i < 300; i++ {
				ts = append(ts, tuple(uint32(1+i%4), uint32(i), int64(1000+10*i), int64(1007+10*i)))
			}
			return ts
		}(),
		"overflow": {
			{ECID: 0, Op: paths.OpMode, Ret: -32768, Seq: math.MaxUint32, Start: math.MaxInt64, End: math.MinInt64},
			{ECID: math.MaxUint32, Op: paths.OpKind(math.MaxUint16), Ret: 32767, Seq: 0, Start: math.MinInt64, End: math.MaxInt64},
			{ECID: 7, Op: paths.OpRead, Ret: 0, Seq: 3, Start: -1, End: 1},
		},
		"raw-fallback": func() []collect.TraceTuple {
			// More than 256 distinct values in every dictionary
			// candidate column forces the raw encoding.
			var ts []collect.TraceTuple
			for i := 0; i < 300; i++ {
				ts = append(ts, collect.TraceTuple{
					ECID: uint32(i), Op: paths.OpKind(i), Ret: int16(i), Seq: uint32(i),
					Start: int64(i), End: int64(2 * i),
				})
			}
			return ts
		}(),
	}
	var enc columnarEncoder
	var dec blockDecoder
	for name, tuples := range batches {
		block := append([]byte(nil), enc.encodeBlock(tuples)...)
		f, ok := frameColumnarBlock(block)
		if !ok {
			t.Fatalf("%s: encoded block does not frame", name)
		}
		if f.size != int64(len(block)) {
			t.Fatalf("%s: frame size %d, block %d", name, f.size, len(block))
		}
		got, err := dec.decodeColumnar(&f)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		sameTuples(t, got, tuples)
	}
	// The fallback actually engaged: the raw-fallback batch's ECID
	// column must not be dictionary-coded, the monotonic one's must be.
	f, _ := frameColumnarBlock(enc.encodeBlock(batches["raw-fallback"]))
	if f.enc[colECID] != colEncRaw {
		t.Fatalf("raw-fallback ecid encoding = %d, want raw", f.enc[colECID])
	}
	f, _ = frameColumnarBlock(enc.encodeBlock(batches["monotonic"]))
	if f.enc[colECID] != colEncDict || f.enc[colOp] != colEncDict {
		t.Fatalf("monotonic encodings = %v, want dict ecid/op", f.enc)
	}
}

// TestColumnarCompression pins the point of the format: a realistic
// trace corpus must occupy meaningfully fewer bytes per block than its
// raw count × 28-byte tuple encoding.
func TestColumnarCompression(t *testing.T) {
	var tuples []collect.TraceTuple
	for i := 0; i < 256; i++ {
		tuples = append(tuples, tuple(uint32(1+i%4), uint32(i), int64(100000+137*i), int64(100040+137*i)))
	}
	var enc columnarEncoder
	col := len(enc.encodeBlock(tuples))
	raw := len(tuples) * collect.TupleSize
	if col*2 > raw {
		t.Fatalf("columnar block %d B vs raw %d B: expected at least 2x smaller", col, raw)
	}
}

// TestColumnarTornTailReopen is the torn-tail contract under the
// columnar codec: a tear inside the last block loses that block alone,
// and reopen truncates and continues in the same segment.
func TestColumnarTornTailReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, BlockTuples: 8}
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus := writeCorpus(t, w, 24, 2) // 3 full blocks
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	// Tear the final block mid-payload.
	buf, err := os.ReadFile(last.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last.path, buf[:len(buf)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := selectAll(t, dir, Query{})
	sameTuples(t, got, corpus[:16])
	if stats.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want 1", stats.TornSegments)
	}

	w2, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.TornTruncations != 1 || st.TuplesRecovered != 16 {
		t.Fatalf("reopen stats %+v, want 1 truncation, 16 recovered", st)
	}
	more := writeCorpus(t, w2, 8, 2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = selectAll(t, dir, Query{})
	sameTuples(t, got, append(append([]collect.TraceTuple(nil), corpus[:16]...), more...))
}

// TestColumnarCorruptColumnIsTear flips one byte inside a column
// payload: the per-column CRC must catch it and the block must read as
// a tear, never as silently wrong tuples.
func TestColumnarCorruptColumnIsTear(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, BlockTuples: 4})
	if err != nil {
		t.Fatal(err)
	}
	corpus := writeCorpus(t, w, 8, 2) // 2 blocks
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff // inside the last block's end column
	if err := os.WriteFile(segs[0].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := selectAll(t, dir, Query{})
	sameTuples(t, got, corpus[:4])
	if stats.TornSegments != 1 {
		t.Fatalf("stats %+v, want a torn segment", stats)
	}
	// The same corruption must not survive a query that skips the
	// block: a filter the block's dictionary cannot match still reports
	// the tear (the skip path checksums dictionaries before trusting
	// them) or skips on an intact dictionary — either way, no garbage.
	_, stats = selectAll(t, dir, Query{ECIDs: []uint32{99}})
	if stats.TuplesMatched != 0 {
		t.Fatalf("corrupt block leaked tuples: %+v", stats)
	}
}

// TestColumnarBlockSkip is the block-level pushdown contract: a query
// for an absent collector or op kind skips every block via its
// dictionaries, decoding no tuples at all; a selective query decodes
// only the blocks holding its collector.
func TestColumnarBlockSkip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, BlockTuples: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs of blocks with disjoint ECID sets inside one segment.
	var corpus []collect.TraceTuple
	for i := 0; i < 64; i++ {
		ecid := uint32(1 + i%2)
		if i >= 32 {
			ecid = uint32(11 + i%2)
		}
		tu := tuple(ecid, uint32(i), int64(1000+10*i), int64(1005+10*i))
		corpus = append(corpus, tu)
		if err := w.Append([]collect.TraceTuple{tu}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// An op kind no tuple carries: every block skipped, nothing decoded.
	_, stats := selectAll(t, dir, Query{Ops: []paths.OpKind{paths.OpMode}})
	if stats.TuplesScanned != 0 || stats.BlocksSkipped == 0 || stats.BlocksScanned != 0 {
		t.Fatalf("op pushdown decoded tuples: %+v", stats)
	}
	// A collector in the second half only: the first half's blocks are
	// skipped, the matched set is exact.
	got, stats := selectAll(t, dir, Query{ECIDs: []uint32{11}})
	var want []collect.TraceTuple
	for _, tu := range corpus {
		if tu.ECID == 11 {
			want = append(want, tu)
		}
	}
	sameTuples(t, got, want)
	if stats.BlocksSkipped < 4 {
		t.Fatalf("ecid pushdown skipped %d blocks, want >= 4 (%+v)", stats.BlocksSkipped, stats)
	}
	if stats.TuplesScanned >= uint64(len(corpus)) {
		t.Fatalf("ecid pushdown decoded the whole archive: %+v", stats)
	}
}
