package archive

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/paths"
)

// Query selects tuples out of an archive. The zero value matches
// everything. Filters are pushed down to the per-segment header index:
// a segment whose ECID or stamp range cannot intersect the query is
// skipped without reading its blocks.
type Query struct {
	// ECIDs restricts to these event-collector ids (empty: all).
	ECIDs []uint32
	// Ops restricts to these operation kinds (empty: all).
	Ops []paths.OpKind
	// MinStamp / MaxStamp bound the tuple's Start timestamp,
	// inclusive. MaxStamp <= 0 means unbounded above.
	MinStamp hrtime.Stamp
	MaxStamp hrtime.Stamp
}

// match applies the per-tuple filters.
func (q *Query) match(t collect.TraceTuple) bool {
	if len(q.ECIDs) > 0 {
		ok := false
		for _, id := range q.ECIDs {
			if t.ECID == id {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(q.Ops) > 0 {
		ok := false
		for _, op := range q.Ops {
			if t.Op == op {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if t.Start < q.MinStamp {
		return false
	}
	if q.MaxStamp > 0 && t.Start > q.MaxStamp {
		return false
	}
	return true
}

// SegmentInfo describes one archived segment for tooling.
type SegmentInfo struct {
	ID        uint32
	Path      string
	Bytes     int64
	Sealed    bool
	Torn      bool  // the segment carries a damaged tail (ignored by reads)
	TornBytes int64 // bytes in the damaged tail beyond the last intact block
	Index     SegmentIndex
}

// ScanStats reports what one query actually touched — the pushdown
// accounting that the query-scan benchmark and tests pin down.
type ScanStats struct {
	Segments        int    // segments in the archive
	SegmentsSkipped int    // skipped wholesale via the header index
	SegmentsScanned int    // segments whose blocks were read
	BlocksScanned   uint64 // blocks decoded
	BlocksSkipped   uint64 // blocks skipped undecoded (dictionary or cursor skips)
	TuplesScanned   uint64 // tuples decoded
	TuplesMatched   uint64 // tuples that passed the filters
	TuplesSkipped   uint64 // tuples jumped over without decoding (cursor scans)
	BytesScanned    uint64 // segment bytes read off disk
	BytesSkipped    uint64 // segment bytes never read (index or cursor skips)
	TornSegments    int    // scanned segments with a damaged tail
}

// Reader queries an archive directory. It snapshots the segment list
// and headers at open time; segments written afterwards are not seen.
// A reader never modifies the archive.
type Reader struct {
	dir  string
	segs []SegmentInfo

	// skipped lists files tolerated-but-ignored at open time (a crash's
	// header-less newest segment). Close surfaces them so recovery paths
	// can report the damage they silently worked around.
	skipped []string

	opScan *metrics.Op
}

// OpenReader opens the archive directory for querying. Unsealed
// segments (an in-progress or crashed tail) are indexed by scanning
// their blocks; sealed segments load their header index only.
func OpenReader(dir string) (*Reader, error) {
	return OpenReaderMetrics(dir, nil)
}

// OpenReaderMetrics is OpenReader with scan-cost accounting in reg
// (nil disables, equivalent to OpenReader).
func OpenReaderMetrics(dir string, reg *metrics.Registry) (*Reader, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{dir: dir}
	if reg != nil {
		r.opScan = reg.Op(metrics.KindArchive, "archive-scan("+dir+")")
	}
	for _, s := range segs {
		buf, err := os.ReadFile(s.path)
		if err != nil {
			return nil, fmt.Errorf("archive: %v", err)
		}
		if len(buf) < segmentHeaderSize {
			// A crash can leave a header-less newest file; skip it, but
			// remember the damage for Close.
			r.skipped = append(r.skipped, s.path)
			continue
		}
		hdr, err := decodeHeader(buf)
		if err != nil {
			return nil, fmt.Errorf("archive: segment %s: %v", s.path, err)
		}
		info := SegmentInfo{ID: hdr.ID, Path: s.path, Bytes: s.size, Sealed: hdr.Sealed, Index: hdr.Index}
		if !hdr.Sealed {
			// No trustworthy index: recover it from the blocks.
			res, err := scanSegment(buf)
			if err != nil {
				return nil, fmt.Errorf("archive: segment %s: %v", s.path, err)
			}
			info.Index = res.Index
			info.Torn = res.Torn
			if res.Torn {
				info.TornBytes = s.size - res.ValidBytes
			}
		}
		r.segs = append(r.segs, info)
	}
	sort.Slice(r.segs, func(i, j int) bool { return r.segs[i].ID < r.segs[j].ID })
	return r, nil
}

// Dir returns the archive directory.
func (r *Reader) Dir() string { return r.dir }

// Close reports the damage the reader tolerated silently while opening:
// header-less segment files a crash left behind, which open skips so
// queries still run. nil means the directory opened clean. A Reader
// holds no file handles between scans, so Close releases nothing; it
// exists to surface repair context that recovery paths must not drop.
func (r *Reader) Close() error {
	if len(r.skipped) == 0 {
		return nil
	}
	return fmt.Errorf("archive: skipped %d header-less segment file(s): %s",
		len(r.skipped), strings.Join(r.skipped, ", "))
}

// SkippedFiles lists the header-less segment files open tolerated.
func (r *Reader) SkippedFiles() []string {
	return append([]string(nil), r.skipped...)
}

// Segments lists the archive's segments in id (write) order.
func (r *Reader) Segments() []SegmentInfo {
	return append([]SegmentInfo(nil), r.segs...)
}

// Tuples returns the archive's total tuple count across segments.
func (r *Reader) Tuples() uint64 {
	var n uint64
	for _, s := range r.segs {
		n += s.Index.Tuples
	}
	return n
}

// Scan streams every tuple matching q, in archive (write) order,
// through fn. fn returning false stops the scan early. Damaged tails
// end a segment's scan without failing the query.
//
// Segments are walked block by block into one reused decode batch —
// never materialized whole — and blocks whose ECID/op dictionaries
// cannot intersect q are skipped after a dictionary-only CRC check,
// without decoding any column.
func (r *Reader) Scan(q Query, fn func(collect.TraceTuple) bool) (ScanStats, error) {
	stats := ScanStats{Segments: len(r.segs)}
	start := hrtime.Now()
	var bytes int
	defer func() {
		r.opScan.Record(hrtime.Since(start), bytes, nil)
	}()
	var dec blockDecoder
	for _, s := range r.segs {
		if s.Index.empty() || !s.Index.overlapECIDs(q.ECIDs) || !s.Index.overlapStamps(q.MinStamp, q.MaxStamp) {
			stats.SegmentsSkipped++
			stats.BytesSkipped += uint64(s.Bytes)
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
		if scanBlocks(buf, segmentHeaderSize, &q, &dec, &stats, fn) {
			return stats, nil
		}
	}
	return stats, nil
}

// scanBlocks walks one segment image block by block from byte offset
// off (segmentHeaderSize for a whole-segment walk; past it when a
// cursor scan already skipped a prefix), skipping blocks the query
// cannot match, and streams decoded tuples through fn. It reports
// whether fn stopped the scan. A torn tail ends the walk and is
// counted, matching the recovery semantics of scanSegment.
func scanBlocks(buf []byte, off int64, q *Query, dec *blockDecoder, stats *ScanStats, fn func(collect.TraceTuple) bool) (stopped bool) {
	for {
		rest := buf[off:]
		if len(rest) == 0 {
			return false
		}
		f, ok := frameColumnarBlock(rest)
		if !ok {
			stats.TornSegments++
			return false
		}
		off += f.size
		if dec.skipColumnar(&f, q) {
			stats.BlocksSkipped++
			continue
		}
		batch, err := dec.decodeColumnar(&f)
		if err != nil {
			stats.TornSegments++
			return false
		}
		stats.BlocksScanned++
		stats.TuplesScanned += uint64(len(batch))
		for _, t := range batch {
			if !q.match(t) {
				continue
			}
			stats.TuplesMatched++
			if !fn(t) {
				return true
			}
		}
	}
}

// Select materializes the matching tuples in archive order.
func (r *Reader) Select(q Query) ([]collect.TraceTuple, ScanStats, error) {
	var out []collect.TraceTuple
	stats, err := r.Scan(q, func(t collect.TraceTuple) bool {
		out = append(out, t)
		return true
	})
	return out, stats, err
}

// CollectorSummary aggregates one collector's archived tuples.
type CollectorSummary struct {
	ECID       uint32
	Tuples     uint64
	Errors     uint64 // tuples with Ret < 0 (failed operations)
	FirstStart hrtime.Stamp
	LastEnd    hrtime.Stamp
	TotalLatNS int64 // sum of End-Start
}

// MeanLatency returns the collector's mean operation latency.
func (c CollectorSummary) MeanLatency() time.Duration {
	if c.Tuples == 0 {
		return 0
	}
	return time.Duration(c.TotalLatNS / int64(c.Tuples))
}

// Summarize aggregates matching tuples per collector, in ECID order.
// Summaries accumulate in a flat slice — the map holds only indexes
// into it, so aggregation costs one allocation per distinct collector,
// not one per collector plus map-bucket churn.
func (r *Reader) Summarize(q Query) ([]CollectorSummary, ScanStats, error) {
	var out []CollectorSummary
	by := make(map[uint32]int)
	stats, err := r.Scan(q, func(t collect.TraceTuple) bool {
		i, ok := by[t.ECID]
		if !ok {
			i = len(out)
			out = append(out, CollectorSummary{ECID: t.ECID, FirstStart: math.MaxInt64})
			by[t.ECID] = i
		}
		c := &out[i]
		c.Tuples++
		if t.Ret < 0 {
			c.Errors++
		}
		if t.Start < c.FirstStart {
			c.FirstStart = t.Start
		}
		if t.End > c.LastEnd {
			c.LastEnd = t.End
		}
		c.TotalLatNS += t.End - t.Start
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ECID < out[j].ECID })
	return out, stats, nil
}

// SeriesPoint is one bucket of a per-collector time series.
type SeriesPoint struct {
	Bucket     hrtime.Stamp // bucket start (tuple Start stamps)
	Tuples     uint64
	TotalLatNS int64
}

// MeanLatency returns the bucket's mean operation latency.
func (p SeriesPoint) MeanLatency() time.Duration {
	if p.Tuples == 0 {
		return 0
	}
	return time.Duration(p.TotalLatNS / int64(p.Tuples))
}

// TimeSeries buckets matching tuples by their Start stamp into windows
// of the given width, per collector. Buckets are returned in time
// order. The series is computed entirely from tuple stamps: replaying
// it any number of times yields identical output.
func (r *Reader) TimeSeries(q Query, bucket time.Duration) (map[uint32][]SeriesPoint, ScanStats, error) {
	if bucket <= 0 {
		return nil, ScanStats{}, fmt.Errorf("archive: time series bucket %v", bucket)
	}
	// Points accumulate in per-collector slices; the bucket maps hold
	// indexes into them rather than per-bucket heap objects. Tuples
	// arrive in rough time order, so the common case is appending to or
	// revisiting the newest bucket.
	type series struct {
		pts []SeriesPoint
		by  map[hrtime.Stamp]int
	}
	acc := make(map[uint32]*series)
	stats, err := r.Scan(q, func(t collect.TraceTuple) bool {
		b := t.Start - t.Start%int64(bucket)
		s, ok := acc[t.ECID]
		if !ok {
			s = &series{by: make(map[hrtime.Stamp]int)}
			acc[t.ECID] = s
		}
		i, ok := s.by[b]
		if !ok {
			i = len(s.pts)
			s.pts = append(s.pts, SeriesPoint{Bucket: b})
			s.by[b] = i
		}
		s.pts[i].Tuples++
		s.pts[i].TotalLatNS += t.End - t.Start
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	out := make(map[uint32][]SeriesPoint, len(acc))
	for id, s := range acc {
		sort.Slice(s.pts, func(i, j int) bool { return s.pts[i].Bucket < s.pts[j].Bucket })
		out[id] = s.pts
	}
	return out, stats, nil
}
