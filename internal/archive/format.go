package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// Segment header layout (64 bytes, little endian):
//
//	off  size  field
//	  0     4  magic "ESG1"
//	  4     2  version (2: columnar blocks)
//	  6     2  flags (bit 0: sealed)
//	  8     4  segment id
//	 12     4  min ECID        ┐
//	 16     4  max ECID        │ index over the segment's tuples,
//	 20     8  min stamp       │ valid once sealed; recovered by a
//	 28     8  max stamp       │ block scan otherwise
//	 36     8  tuple count     │
//	 44     4  block count     ┘
//	 48    12  reserved (zero)
//	 60     4  CRC32(header[0:60])
//
// Every segment holds columnar blocks (see columnar.go). The version
// field is validated on open: anything but 2 — the retired version-1
// row codec included — is rejected as unsupported.
const (
	segmentMagic      = 0x31475345 // "ESG1" little-endian
	segmentVersion    = 2
	segmentHeaderSize = 64

	flagSealed = 1 << 0
)

// SegmentIndex is the queryable summary of one segment's tuples: the
// pushdown filters skip a whole segment when its ranges cannot
// intersect the query.
type SegmentIndex struct {
	MinECID, MaxECID   uint32
	MinStamp, MaxStamp hrtime.Stamp
	Tuples             uint64
	Blocks             uint32
}

// empty reports whether the index has absorbed no tuples.
func (x *SegmentIndex) empty() bool { return x.Tuples == 0 }

// add folds one tuple into the index. Stamps use the tuple's own
// Start/End timestamps — the archive never consults a clock.
func (x *SegmentIndex) add(t collect.TraceTuple) {
	if x.Tuples == 0 {
		x.MinECID, x.MaxECID = t.ECID, t.ECID
		x.MinStamp, x.MaxStamp = t.Start, t.End
	} else {
		if t.ECID < x.MinECID {
			x.MinECID = t.ECID
		}
		if t.ECID > x.MaxECID {
			x.MaxECID = t.ECID
		}
		if t.Start < x.MinStamp {
			x.MinStamp = t.Start
		}
		if t.End > x.MaxStamp {
			x.MaxStamp = t.End
		}
	}
	x.Tuples++
}

// segmentHeader is the decoded form of a segment file's first 64 bytes.
type segmentHeader struct {
	ID     uint32
	Sealed bool
	Index  SegmentIndex
}

func encodeHeader(h segmentHeader) []byte {
	buf := make([]byte, segmentHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:4], segmentMagic)
	binary.LittleEndian.PutUint16(buf[4:6], segmentVersion)
	var flags uint16
	if h.Sealed {
		flags |= flagSealed
	}
	binary.LittleEndian.PutUint16(buf[6:8], flags)
	binary.LittleEndian.PutUint32(buf[8:12], h.ID)
	binary.LittleEndian.PutUint32(buf[12:16], h.Index.MinECID)
	binary.LittleEndian.PutUint32(buf[16:20], h.Index.MaxECID)
	binary.LittleEndian.PutUint64(buf[20:28], uint64(h.Index.MinStamp))
	binary.LittleEndian.PutUint64(buf[28:36], uint64(h.Index.MaxStamp))
	binary.LittleEndian.PutUint64(buf[36:44], h.Index.Tuples)
	binary.LittleEndian.PutUint32(buf[44:48], h.Index.Blocks)
	binary.LittleEndian.PutUint32(buf[60:64], crc32.ChecksumIEEE(buf[:60]))
	return buf
}

func decodeHeader(buf []byte) (segmentHeader, error) {
	if len(buf) < segmentHeaderSize {
		return segmentHeader{}, fmt.Errorf("archive: short segment header (%d bytes)", len(buf))
	}
	if m := binary.LittleEndian.Uint32(buf[0:4]); m != segmentMagic {
		return segmentHeader{}, fmt.Errorf("archive: bad segment magic %#x", m)
	}
	v := binary.LittleEndian.Uint16(buf[4:6])
	if v != segmentVersion {
		return segmentHeader{}, fmt.Errorf("archive: unsupported segment version %d", v)
	}
	if got, want := crc32.ChecksumIEEE(buf[:60]), binary.LittleEndian.Uint32(buf[60:64]); got != want {
		return segmentHeader{}, fmt.Errorf("archive: segment header CRC mismatch (%#x != %#x)", got, want)
	}
	h := segmentHeader{
		ID:     binary.LittleEndian.Uint32(buf[8:12]),
		Sealed: binary.LittleEndian.Uint16(buf[6:8])&flagSealed != 0,
	}
	h.Index = SegmentIndex{
		MinECID:  binary.LittleEndian.Uint32(buf[12:16]),
		MaxECID:  binary.LittleEndian.Uint32(buf[16:20]),
		MinStamp: int64(binary.LittleEndian.Uint64(buf[20:28])),
		MaxStamp: int64(binary.LittleEndian.Uint64(buf[28:36])),
		Tuples:   binary.LittleEndian.Uint64(buf[36:44]),
		Blocks:   binary.LittleEndian.Uint32(buf[44:48]),
	}
	return h, nil
}

// decodeNextBlock frames and fully validates the block at the start of
// rest, decoding it into dec's reused batch. The batch aliases dec's
// scratch — consume it before the next call. ok=false is the torn-tail
// signature: a partial header, short payload, CRC mismatch, or invalid
// count.
func decodeNextBlock(rest []byte, dec *blockDecoder) (batch []collect.TraceTuple, size int64, ok bool) {
	f, ok := frameColumnarBlock(rest)
	if !ok {
		return nil, 0, false
	}
	batch, err := dec.decodeColumnar(&f)
	if err != nil {
		return nil, 0, false
	}
	return batch, f.size, true
}

// scanResult is what scanSegment recovered from a segment's bytes.
type scanResult struct {
	Header segmentHeader
	Index  SegmentIndex // recomputed from the blocks actually read
	// ValidBytes is the offset just past the last intact block: the
	// truncation point for a crash-safe reopen.
	ValidBytes int64
	// Torn reports that trailing bytes past ValidBytes were dropped
	// (a partial block header, short payload, bad CRC, or an invalid
	// count — the torn-tail signature).
	Torn bool
}

// scanSegment validates a whole segment image: the header, then every
// intact block in order, folding each decoded batch into the recovered
// index without retaining the tuples. It never fails on a damaged tail
// — it stops there and reports how much was valid — but it does fail
// on a missing/corrupt header, which no crash of an append-only writer
// can produce (headers are written before the first block).
func scanSegment(buf []byte) (scanResult, error) {
	h, err := decodeHeader(buf)
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{Header: h, ValidBytes: segmentHeaderSize}
	var dec blockDecoder
	off := int64(segmentHeaderSize)
	for {
		rest := buf[off:]
		if len(rest) == 0 {
			return res, nil
		}
		batch, size, ok := decodeNextBlock(rest, &dec)
		if !ok {
			res.Torn = true
			return res, nil
		}
		for _, t := range batch {
			res.Index.add(t)
		}
		res.Index.Blocks++
		off += size
		res.ValidBytes = off
	}
}

// overlapECIDs reports whether any queried ECID can fall inside the
// index's ECID range.
func (x *SegmentIndex) overlapECIDs(ecids []uint32) bool {
	if len(ecids) == 0 {
		return true
	}
	for _, id := range ecids {
		if id >= x.MinECID && id <= x.MaxECID {
			return true
		}
	}
	return false
}

// overlapStamps reports whether the index's stamp range intersects
// [min, max] (max <= 0 means unbounded).
func (x *SegmentIndex) overlapStamps(min, max hrtime.Stamp) bool {
	hi := max
	if hi <= 0 {
		hi = math.MaxInt64
	}
	return x.MinStamp <= hi && x.MaxStamp >= min
}
