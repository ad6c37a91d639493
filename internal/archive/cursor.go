// Archive cursors: the replay-suffix contract between the recovery
// checkpointer and the reader. Writer.Position stamps a checkpoint with
// the durable position of the stream; Reader.ScanFrom replays only the
// tuples archived after that position. Recovery time then scales with
// the suffix written since the last checkpoint, not with the archive —
// the bounded-time failover the recovery benchmark pins down.
//
// A cursor is only honoured when the directory still proves it: the
// tuple counts of the segments before the cursor must sum to exactly
// the cursor's global position, and the cursor segment must still hold
// at least the covered tuple count. Retention deletes, a torn cursor
// segment, or a cursor from some other directory all fail validation
// with an error, and the caller falls back down the recovery ladder
// (older checkpoint, then full replay) instead of silently diverging.
package archive

import (
	"fmt"
	"os"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// Cursor marks a durable position in an archive directory's tuple
// stream, in directory-lifetime coordinates (reopen after a crash
// continues the same count).
type Cursor struct {
	// Tuples counts every tuple persisted to the directory before this
	// point, across all segments ever written, including any since
	// deleted by retention.
	Tuples uint64
	// Segment is the id of the segment that was active at capture.
	Segment uint32
	// SegTuples counts the tuples already persisted into that segment
	// at capture.
	SegTuples uint64
}

// ScanFrom streams every tuple archived after cur that matches q, in
// archive order, through fn — the replay-suffix fast path behind
// checkpointed recovery. Segments wholly covered by the cursor are
// skipped without reading a byte; the cursor segment is skipped
// block-by-block without decoding until the cursor position, then
// scanned normally, as are all later segments. fn returning false stops
// the scan early.
//
// ScanFrom fails — rather than guessing — when the directory no longer
// matches the cursor: the cursor segment is gone or torn before the
// covered position, or the surviving prefix tuple counts do not sum to
// the cursor's global position (retention deleted covered segments).
// Callers treat that error as "this checkpoint is unusable here" and
// fall back to an older checkpoint or a full Scan.
func (r *Reader) ScanFrom(cur Cursor, q Query, fn func(collect.TraceTuple) bool) (ScanStats, error) {
	stats := ScanStats{Segments: len(r.segs)}
	start := hrtime.Now()
	var bytes int
	defer func() {
		r.opScan.Record(hrtime.Since(start), bytes, nil)
	}()

	var prefix uint64
	curSeg := -1
	for i, s := range r.segs {
		switch {
		case s.ID < cur.Segment:
			prefix += s.Index.Tuples
		case s.ID == cur.Segment:
			curSeg = i
		}
	}
	if curSeg < 0 {
		return stats, fmt.Errorf("archive: cursor segment %d not in archive", cur.Segment)
	}
	if got := prefix + cur.SegTuples; got != cur.Tuples {
		return stats, fmt.Errorf("archive: cursor mismatch: directory proves %d tuples before the cursor, cursor claims %d", got, cur.Tuples)
	}
	if have := r.segs[curSeg].Index.Tuples; have < cur.SegTuples {
		return stats, fmt.Errorf("archive: cursor segment %d holds %d tuples, cursor covers %d", cur.Segment, have, cur.SegTuples)
	}

	// Everything before the cursor segment is covered by the checkpoint:
	// skipped wholesale, never read.
	for _, s := range r.segs[:curSeg] {
		stats.SegmentsSkipped++
		stats.BytesSkipped += uint64(s.Bytes)
		stats.TuplesSkipped += s.Index.Tuples
	}

	var dec blockDecoder
	for _, s := range r.segs[curSeg:] {
		covered := uint64(0)
		if s.ID == cur.Segment {
			covered = cur.SegTuples
		}
		uncovered := s.Index.Tuples - covered
		if uncovered == 0 || !s.Index.overlapECIDs(q.ECIDs) || !s.Index.overlapStamps(q.MinStamp, q.MaxStamp) {
			stats.SegmentsSkipped++
			stats.BytesSkipped += uint64(s.Bytes)
			stats.TuplesSkipped += uncovered
			continue
		}
		buf, err := os.ReadFile(s.Path)
		if err != nil {
			return stats, fmt.Errorf("archive: %v", err)
		}
		bytes += len(buf)
		stats.BytesScanned += uint64(len(buf))
		if _, err := decodeHeader(buf); err != nil {
			return stats, fmt.Errorf("archive: segment %s: %v", s.Path, err)
		}
		stats.SegmentsScanned++
		off := int64(segmentHeaderSize)
		// Jump the covered prefix frame by frame: whole covered blocks
		// are sized but never decoded; the block straddling the cursor
		// is decoded once and its covered head dropped.
		for skip := covered; skip > 0; {
			f, ok := frameColumnarBlock(buf[off:])
			if !ok {
				return stats, fmt.Errorf("archive: segment %s: torn before cursor position", s.Path)
			}
			if count := uint64(f.count); count <= skip {
				skip -= count
				off += f.size
				stats.BlocksSkipped++
				stats.TuplesSkipped += count
				continue
			}
			batch, err := dec.decodeColumnar(&f)
			if err != nil {
				return stats, fmt.Errorf("archive: segment %s: torn before cursor position", s.Path)
			}
			off += f.size
			stats.BlocksScanned++
			stats.TuplesSkipped += skip
			stats.TuplesScanned += uint64(len(batch)) - skip
			for _, t := range batch[skip:] {
				if !q.match(t) {
					continue
				}
				stats.TuplesMatched++
				if !fn(t) {
					return stats, nil
				}
			}
			skip = 0
		}
		if scanBlocks(buf, off, &q, &dec, &stats, fn) {
			return stats, nil
		}
	}
	return stats, nil
}
