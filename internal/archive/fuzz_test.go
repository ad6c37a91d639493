package archive

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// v1Segment builds an unsealed segment image as the retired version-1
// row codec wrote it: the 64-byte header with version 1, then one row
// block (count, CRC32(payload), count × 28-byte tuples). Opening such a
// segment must fail — the codec is no longer read.
func v1Segment(id uint32, tuples []collect.TraceTuple) []byte {
	buf := encodeHeader(segmentHeader{ID: id})
	binary.LittleEndian.PutUint16(buf[4:6], 1)
	binary.LittleEndian.PutUint32(buf[60:64], crc32.ChecksumIEEE(buf[:60]))
	payload := make([]byte, len(tuples)*collect.TupleSize)
	for i := range tuples {
		tuples[i].EncodeTo(payload[i*collect.TupleSize:])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tuples)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// FuzzSegmentDecode fuzzes the segment parser the reader and the
// crash-safe reopen both rely on: arbitrary bytes must never panic, a
// header of any version but 2 must be rejected, and the recovered
// prefix must stay internally consistent (ValidBytes inside the buffer,
// index matching what the reader's block walk streams from the same
// bytes).
func FuzzSegmentDecode(f *testing.F) {
	// Seed: an empty sealed segment, one with two blocks, torn variants
	// of it, and a retired version-1 segment.
	empty := encodeHeader(segmentHeader{ID: 1, Sealed: true})
	f.Add(empty)
	var enc columnarEncoder
	var whole []byte
	whole = append(whole, encodeHeader(segmentHeader{ID: 2})...)
	whole = append(whole, enc.encodeBlock([]collect.TraceTuple{
		{ECID: 1, Seq: 0, Start: 10, End: 20},
		{ECID: 2, Seq: 1, Start: 30, End: 40},
	})...)
	whole = append(whole, enc.encodeBlock([]collect.TraceTuple{
		{ECID: 3, Seq: 2, Start: 50, End: 60},
	})...)
	f.Add(whole)
	f.Add(whole[:len(whole)-7])          // torn column payload
	f.Add(whole[:segmentHeaderSize+3])   // torn block header
	f.Add(whole[:segmentHeaderSize-10])  // short header
	f.Add(append([]byte(nil), whole...)) // mutated below by the engine
	f.Add(v1Segment(3, []collect.TraceTuple{
		{ECID: 1, Seq: 0, Start: 10, End: 20},
		{ECID: 2, Seq: 1, Start: 30, End: 40},
	}))
	f.Add(whole[:len(whole)-5])                                  // torn column payload
	f.Add(whole[:segmentHeaderSize+9])                           // torn block header/directory
	f.Add(whole[:segmentHeaderSize+v2BlockHeaderSize+v2DirSize]) // directory without payloads

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := scanSegment(data)
		if len(data) >= segmentHeaderSize && binary.LittleEndian.Uint16(data[4:6]) != segmentVersion && err == nil {
			t.Fatalf("segment version %d accepted", binary.LittleEndian.Uint16(data[4:6]))
		}
		if err != nil {
			return // corrupt or unsupported header: rejected outright
		}
		if res.ValidBytes < segmentHeaderSize || res.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d outside [%d, %d]", res.ValidBytes, segmentHeaderSize, len(data))
		}
		if !res.Torn && res.ValidBytes != int64(len(data)) {
			t.Fatalf("not torn but ValidBytes %d < %d", res.ValidBytes, len(data))
		}
		// The recovered index must be exactly what the reader's block
		// walk streams from the same bytes: every tuple, its ECID and
		// stamp bounds, and the block count.
		var streamed SegmentIndex
		var stats ScanStats
		var dec blockDecoder
		scanBlocks(data, segmentHeaderSize, &Query{}, &dec, &stats, func(tu collect.TraceTuple) bool {
			streamed.add(tu)
			return true
		})
		streamed.Blocks = uint32(stats.BlocksScanned)
		if streamed != res.Index {
			t.Fatalf("index %+v, reader walk streamed %+v", res.Index, streamed)
		}
		if torn := stats.TornSegments != 0; torn != res.Torn {
			t.Fatalf("scan torn=%v, reader walk torn=%v", res.Torn, torn)
		}
		// The recovered prefix must itself rescan identically — the
		// invariant behind truncate-and-continue reopens.
		again, err := scanSegment(data[:res.ValidBytes])
		if err != nil {
			t.Fatalf("rescan of valid prefix failed: %v", err)
		}
		if again.Torn || again.Index != res.Index {
			t.Fatalf("rescan diverged: torn=%v index=%+v want %+v", again.Torn, again.Index, res.Index)
		}
	})
}

// FuzzColumnarRoundTrip fuzzes the columnar block codec's losslessness:
// any tuple batch — the fuzz input is carved into 28-byte rows, so
// every field takes adversarial values, overflow stamps included — must
// encode, frame and decode back exactly.
func FuzzColumnarRoundTrip(f *testing.F) {
	seed := make([]byte, 3*collect.TupleSize)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	var zeros [collect.TupleSize]byte
	f.Add(zeros[:])
	adversarial := collect.TraceTuple{
		ECID: math.MaxUint32, Op: paths.OpKind(math.MaxUint16), Ret: math.MinInt16,
		Seq: math.MaxUint32, Start: math.MinInt64, End: math.MaxInt64,
	}
	f.Add(adversarial.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / collect.TupleSize
		if n == 0 {
			return
		}
		if n > MaxBlockTuples {
			n = MaxBlockTuples
		}
		tuples := make([]collect.TraceTuple, n)
		for i := range tuples {
			row := data[i*collect.TupleSize:]
			tuples[i] = collect.TraceTuple{
				ECID:  binary.LittleEndian.Uint32(row[0:4]),
				Op:    paths.OpKind(binary.LittleEndian.Uint16(row[4:6])),
				Ret:   int16(binary.LittleEndian.Uint16(row[6:8])),
				Seq:   binary.LittleEndian.Uint32(row[8:12]),
				Start: int64(binary.LittleEndian.Uint64(row[12:20])),
				End:   int64(binary.LittleEndian.Uint64(row[20:28])),
			}
		}
		var enc columnarEncoder
		block := enc.encodeBlock(tuples)
		fr, ok := frameColumnarBlock(block)
		if !ok {
			t.Fatal("encoded block does not frame")
		}
		if fr.size != int64(len(block)) {
			t.Fatalf("frame consumed %d of %d bytes", fr.size, len(block))
		}
		var dec blockDecoder
		got, err := dec.decodeColumnar(&fr)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range tuples {
			if got[i] != tuples[i] {
				t.Fatalf("tuple %d round-tripped to %+v, want %+v", i, got[i], tuples[i])
			}
		}
	})
}
