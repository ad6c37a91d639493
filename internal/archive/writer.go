package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
)

// segmentFileName names segment id on disk. Ids are monotonically
// increasing, so lexical order equals write order.
func segmentFileName(id uint32) string { return fmt.Sprintf("seg-%08d.eseg", id) }

// parseSegmentFileName inverts segmentFileName.
func parseSegmentFileName(name string) (uint32, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".eseg")
	if !ok || len(rest) != 8 {
		return 0, false
	}
	var id uint32
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint32(c-'0')
	}
	return id, true
}

// writerSegment is the writer's bookkeeping for one on-disk segment.
type writerSegment struct {
	id   uint32
	path string
	size int64
}

// WriterStats is a snapshot of a writer's activity.
type WriterStats struct {
	Segments         int    // segment files currently on disk
	ActiveSegment    uint32 // id of the segment being appended to
	TuplesWritten    uint64 // tuples persisted by this writer
	BytesWritten     uint64 // block bytes persisted by this writer
	TotalBytes       int64  // archive size on disk, headers included
	Rotations        uint64 // segments sealed because of the size cap
	RetentionDeletes uint64 // old segments deleted by the total-bytes cap
	TornTruncations  uint64 // torn tails truncated at reopen
	TuplesRecovered  uint64 // tuples found in the reopened segment
}

// Writer appends trace tuples to a segmented archive directory. All
// methods are safe for concurrent use; tuples are persisted in Append
// order. A Writer is the sink end of the archive: wire it to a puller
// with escope.ArchiveSink, or call Append from a monitor tap.
type Writer struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	active   writerSegment
	index    SegmentIndex
	pending  []collect.TraceTuple
	enc      columnarEncoder      // reused block scratch
	rawBatch []collect.TraceTuple // reused AppendRaw decode batch
	sealed   []writerSegment      // older segments, oldest first
	total    int64                // bytes on disk across sealed + active
	closed   bool
	stats    WriterStats
	writeErr error // first unrecoverable file-system error, sticky

	// baseTuples counts the durable tuples already on disk when the
	// directory was (re)opened, so Position can report a cursor in
	// directory-lifetime tuple coordinates across crash-restart cycles.
	baseTuples uint64

	opWrite *metrics.Op
	cRot    *metrics.Counter
	cRet    *metrics.Counter
	cTrunc  *metrics.Counter
}

// Create opens (or crash-safely reopens) the archive directory and
// returns a Writer appending to it. An existing unsealed newest segment
// is continued after its torn tail, if any, is truncated away; at most
// the final partial block of the previous run is lost. A segment whose
// full-length header does not decode (corrupt, or another codec
// version) fails Create with an error naming the file, which is left
// untouched.
func Create(opts Options) (*Writer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %v", err)
	}
	w := &Writer{opts: opts}
	if reg := opts.Metrics; reg != nil {
		label := filepath.Base(opts.Dir)
		w.opWrite = reg.Op(metrics.KindArchive, "archive("+label+")")
		w.cRot = reg.Counter("archive(" + label + ")/rotations")
		w.cRet = reg.Counter("archive(" + label + ")/retention.deletes")
		w.cTrunc = reg.Counter("archive(" + label + ")/truncations")
	}
	if err := w.reopen(); err != nil {
		return nil, err
	}
	return w, nil
}

// listSegments returns the directory's segment files in id order.
func listSegments(dir string) ([]writerSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %v", err)
	}
	var segs []writerSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, ok := parseSegmentFileName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("archive: %v", err)
		}
		segs = append(segs, writerSegment{id: id, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].id < segs[j].id })
	return segs, nil
}

// segmentTuples returns the tuple count a segment file holds: the
// header index for sealed segments, a block scan for unsealed ones. A
// file shorter than a header counts zero, matching the reader, which
// skips such files; a full-length header that does not decode is an
// error, as it is for the reader.
func segmentTuples(path string) (uint64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("archive: %v", err)
	}
	if len(buf) < segmentHeaderSize {
		return 0, nil
	}
	hdr, err := decodeHeader(buf)
	if err != nil {
		return 0, fmt.Errorf("archive: segment %s: %v", path, err)
	}
	if hdr.Sealed {
		return hdr.Index.Tuples, nil
	}
	res, err := scanSegment(buf)
	if err != nil {
		return 0, fmt.Errorf("archive: segment %s: %v", path, err)
	}
	return res.Index.Tuples, nil
}

// reopen restores the writer's state from the directory: older segments
// count toward retention, and the newest is validated, truncated past
// its last intact block, and continued if it is still unsealed.
func (w *Writer) reopen() error {
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	nextID := uint32(1)
	for _, s := range segs {
		w.total += s.size
		nextID = s.id + 1
	}
	// Older segments contribute their recorded tuple counts to the
	// directory-lifetime cursor basis; the newest is counted below from
	// its recovered index, after torn-tail repair.
	for _, s := range segs[:max(len(segs)-1, 0)] {
		n, err := segmentTuples(s.path)
		if err != nil {
			return err
		}
		w.baseTuples += n
	}
	if len(segs) == 0 {
		return w.newSegment(nextID)
	}
	last := segs[len(segs)-1]
	if last.size < segmentHeaderSize {
		// The newest file never got its whole header (crash between
		// create and the first write, see CrashRotate) — the only header
		// damage the crash model produces. Drop it and start fresh under
		// the same id.
		w.total -= last.size
		if err := os.Remove(last.path); err != nil {
			return fmt.Errorf("archive: %v", err)
		}
		w.stats.TornTruncations++
		w.cTrunc.Inc()
		w.sealed = segs[:len(segs)-1]
		return w.newSegment(last.id)
	}
	buf, err := os.ReadFile(last.path)
	if err != nil {
		return fmt.Errorf("archive: %v", err)
	}
	res, err := scanSegment(buf)
	if err != nil {
		return fmt.Errorf("archive: segment %s: %v", last.path, err)
	}
	if res.Torn {
		if err := os.Truncate(last.path, res.ValidBytes); err != nil {
			return fmt.Errorf("archive: %v", err)
		}
		w.total -= last.size - res.ValidBytes
		last.size = res.ValidBytes
		segs[len(segs)-1] = last
		w.stats.TornTruncations++
		w.cTrunc.Inc()
	}
	w.baseTuples += res.Index.Tuples
	if res.Header.Sealed {
		w.sealed = segs
		return w.newSegment(nextID)
	}
	// Continue appending where the previous run stopped.
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %v", err)
	}
	if _, err := f.Seek(last.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("archive: %v", err)
	}
	w.f = f
	w.active = last
	w.index = res.Index
	w.stats.TuplesRecovered = res.Index.Tuples
	w.sealed = segs[:len(segs)-1]
	w.stats.Segments = len(segs)
	w.stats.ActiveSegment = last.id
	w.stats.TotalBytes = w.total
	return nil
}

// newSegment creates and activates segment id with a provisional
// (unsealed) header.
func (w *Writer) newSegment(id uint32) error {
	path := filepath.Join(w.opts.Dir, segmentFileName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %v", err)
	}
	hdr := encodeHeader(segmentHeader{ID: id})
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("archive: %v", err)
	}
	w.f = f
	w.active = writerSegment{id: id, path: path, size: segmentHeaderSize}
	w.index = SegmentIndex{}
	w.total += segmentHeaderSize
	w.stats.Segments = len(w.sealed) + 1
	w.stats.ActiveSegment = id
	w.stats.TotalBytes = w.total
	return nil
}

// Append buffers tuples and persists them in whole blocks. Tuples are
// durable after the block holding them is written; Flush or Close
// forces out a partial block.
func (w *Writer) Append(tuples []collect.TraceTuple) error {
	if len(tuples) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("archive: writer closed")
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	return w.appendLocked(tuples)
}

// appendLocked buffers tuples and flushes whole blocks.
func (w *Writer) appendLocked(tuples []collect.TraceTuple) error {
	w.pending = append(w.pending, tuples...)
	bt := w.opts.blockTuples()
	for len(w.pending) >= bt {
		if err := w.flushLocked(bt); err != nil {
			return err
		}
	}
	return nil
}

// AppendRaw decodes a concatenation of encoded tuples (an event-scope
// pull reply) and appends them. The decode batch is reused across
// calls, so steady-state archiving of gather replies does not allocate
// per payload. A trailing partial tuple is reported via collect's
// offset-carrying error after the whole tuples before it were appended.
func (w *Writer) AppendRaw(data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("archive: writer closed")
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	tuples, err := collect.DecodeAppend(w.rawBatch[:0], data)
	if tuples != nil {
		w.rawBatch = tuples[:0]
	}
	if len(tuples) > 0 {
		if aerr := w.appendLocked(tuples); aerr != nil {
			return aerr
		}
	}
	return err
}

// flushLocked writes the first n pending tuples (n <= 0: all) as one
// block, updating the index and rotating when the segment is full.
func (w *Writer) flushLocked(n int) error {
	if n <= 0 || n > len(w.pending) {
		n = len(w.pending)
	}
	if n == 0 {
		return nil
	}
	batch := w.pending[:n]
	// The encoder's scratch is reused across blocks: the steady-state
	// flush path allocates nothing.
	buf := w.enc.encodeBlock(batch)
	if frac, fire := w.opts.CrashPoints.hit(CrashBlockFlush); fire {
		// Persist only a torn prefix of the block and die: the index,
		// stats and pending buffer are untouched, exactly as a power cut
		// mid-write would leave them.
		if keep := tearLen(len(buf), frac); keep > 0 {
			w.f.Write(buf[:keep])
		}
		w.writeErr = ErrInjectedCrash
		return w.writeErr
	}
	start := hrtime.Now()
	_, err := w.f.Write(buf)
	w.opWrite.Record(hrtime.Since(start), len(buf), err)
	if err != nil {
		w.writeErr = fmt.Errorf("archive: segment %d: %v", w.active.id, err)
		return w.writeErr
	}
	for _, t := range batch {
		w.index.add(t)
	}
	w.index.Blocks++
	w.pending = w.pending[:copy(w.pending, w.pending[n:])]
	w.active.size += int64(len(buf))
	w.total += int64(len(buf))
	w.stats.TuplesWritten += uint64(n)
	w.stats.BytesWritten += uint64(len(buf))
	w.stats.TotalBytes = w.total
	if w.active.size >= w.opts.segmentBytes() {
		return w.rotateLocked()
	}
	return nil
}

// sealLocked finalizes the active segment's header in place.
func (w *Writer) sealLocked() error {
	if _, fire := w.opts.CrashPoints.hit(CrashSeal); fire {
		// Die before the header rewrite: the segment keeps its valid
		// provisional (unsealed) header and every flushed block. The
		// 64-byte in-place rewrite itself is modelled as atomic — it
		// fits one sector — so the only crash states around sealing are
		// "still unsealed" (here) and "sealed" (after).
		w.f.Close()
		w.f = nil
		w.writeErr = ErrInjectedCrash
		return w.writeErr
	}
	hdr := encodeHeader(segmentHeader{ID: w.active.id, Sealed: true, Index: w.index})
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		w.writeErr = fmt.Errorf("archive: sealing segment %d: %v", w.active.id, err)
		return w.writeErr
	}
	if err := w.f.Close(); err != nil {
		w.writeErr = fmt.Errorf("archive: closing segment %d: %v", w.active.id, err)
		return w.writeErr
	}
	w.f = nil
	return nil
}

// rotateLocked seals the active segment, opens the next one, and
// applies the retention cap.
func (w *Writer) rotateLocked() error {
	if err := w.sealLocked(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, w.active)
	w.stats.Rotations++
	w.cRot.Inc()
	if _, fire := w.opts.CrashPoints.hit(CrashRotate); fire {
		// Die between sealing the old segment and writing the new one's
		// header, leaving the header-less empty file a real crash at
		// this instant leaves; reopen drops it and reuses the id.
		if f, err := os.OpenFile(filepath.Join(w.opts.Dir, segmentFileName(w.active.id+1)),
			os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err == nil {
			f.Close()
		}
		w.writeErr = ErrInjectedCrash
		return w.writeErr
	}
	if err := w.newSegment(w.active.id + 1); err != nil {
		w.writeErr = err
		return err
	}
	// Retention: drop the oldest sealed segments until the total fits.
	// The active segment is never deleted.
	if limit := w.opts.MaxTotalBytes; limit > 0 {
		for w.total > limit && len(w.sealed) > 0 {
			old := w.sealed[0]
			if err := os.Remove(old.path); err != nil {
				w.writeErr = fmt.Errorf("archive: retention: %v", err)
				return w.writeErr
			}
			w.sealed = w.sealed[1:]
			w.total -= old.size
			w.stats.RetentionDeletes++
			w.cRet.Inc()
		}
		w.stats.Segments = len(w.sealed) + 1
		w.stats.TotalBytes = w.total
	}
	return nil
}

// Flush forces buffered tuples out as a (possibly short) block.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("archive: writer closed")
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	return w.flushLocked(0)
}

// Rotate flushes and seals the active segment, starting a fresh one.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("archive: writer closed")
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	if err := w.flushLocked(0); err != nil {
		return err
	}
	return w.rotateLocked()
}

// Close flushes buffered tuples, seals the active segment, and releases
// the writer. Close is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.writeErr != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return w.writeErr
	}
	if err := w.flushLocked(0); err != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return err
	}
	if err := w.sealLocked(); err != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return err
	}
	w.sealed = append(w.sealed, w.active)
	return nil
}

// Position returns the writer's current durable cursor: the tuples
// already persisted to disk, in directory-lifetime coordinates. Tuples
// still buffered in a partial block are NOT covered — call Flush first
// when the cursor must cover everything appended so far. A checkpoint
// stamped with this cursor owns exactly the archive prefix before it;
// Reader.ScanFrom replays the suffix after it.
func (w *Writer) Position() Cursor {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Cursor{
		Tuples:    w.baseTuples + w.stats.TuplesWritten,
		Segment:   w.active.id,
		SegTuples: w.index.Tuples,
	}
}

// Stats snapshots the writer's activity counters.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.Segments = len(w.sealed) + 1
	if w.f == nil {
		s.Segments = len(w.sealed)
	}
	s.TotalBytes = w.total
	return s
}

// Dir returns the archive directory.
func (w *Writer) Dir() string { return w.opts.Dir }
