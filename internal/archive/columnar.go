package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// Columnar (version 2) block layout. Instead of count × 28-byte row
// tuples, a block stores the batch column by column so that each column
// can use the encoding its values actually need:
//
//	off  size  field
//	  0     4  tuple count
//	  4     4  column-area bytes (directory + payloads)
//	  8     4  CRC32(directory)
//	 12    54  directory: 6 × (encoding u8, payload len u32, CRC32 u32)
//	 66     …  column payloads, in column order, back to back
//
// Columns are fixed: ECID, Op, Ret, Seq, Start, End. Each payload
// carries its own CRC so a reader can validate just the columns a query
// needs — the block-skip fast path checksums only the dictionary-coded
// ECID/Op columns before deciding whether the rest of the block is
// worth decoding at all.
//
// Encodings:
//
//	raw     fixed-width little-endian values (the row layout, columnized)
//	dict    u16 value count, the distinct values at fixed width in first-
//	        appearance order, then count × u8 indexes. Chosen when a
//	        column has at most 256 distinct values — always true in
//	        practice for ECID, Op and Ret.
//	delta   zigzag-varint difference from the previous value (first value
//	        from zero). Chosen for Seq and Start, which are near-
//	        monotonic, so deltas are tiny.
//	latency varint of End-Start per tuple (End only): the latency is
//	        orders of magnitude smaller than the absolute stamp.
//
// All arithmetic is wrapping uint64, so every int64/uint32 value round-
// trips exactly regardless of overflow; the fuzzer pins this down with
// adversarial stamps.
const (
	colECID = iota
	colOp
	colRet
	colSeq
	colStart
	colEnd
	numColumns
)

const (
	colEncRaw     = 0
	colEncDict    = 1
	colEncDelta   = 2
	colEncLatency = 3

	v2BlockHeaderSize = 12
	v2DirEntrySize    = 9
	v2DirSize         = numColumns * v2DirEntrySize
	v2MaxDictEntries  = 256
)

// colRawWidth is each column's fixed-width encoding size in bytes.
var colRawWidth = [numColumns]int{4, 2, 2, 4, 8, 8}

// colName labels columns in error messages.
var colName = [numColumns]string{"ecid", "op", "ret", "seq", "start", "end"}

// colValue extracts one column of a tuple as a uint64 (narrower columns
// are zero-extended; signed ones carry their bit pattern).
func colValue(t *collect.TraceTuple, col int) uint64 {
	switch col {
	case colECID:
		return uint64(t.ECID)
	case colOp:
		return uint64(uint16(t.Op))
	case colRet:
		return uint64(uint16(t.Ret))
	case colSeq:
		return uint64(t.Seq)
	case colStart:
		return uint64(t.Start)
	default:
		return uint64(t.End)
	}
}

// setColValue is colValue's inverse.
func setColValue(t *collect.TraceTuple, col int, v uint64) {
	switch col {
	case colECID:
		t.ECID = uint32(v)
	case colOp:
		t.Op = paths.OpKind(uint16(v))
	case colRet:
		t.Ret = int16(uint16(v))
	case colSeq:
		t.Seq = uint32(v)
	case colStart:
		t.Start = int64(v)
	default:
		t.End = int64(v)
	}
}

// appendColValue appends v at the column's fixed width.
func appendColValue(dst []byte, col int, v uint64) []byte {
	switch colRawWidth[col] {
	case 2:
		return binary.LittleEndian.AppendUint16(dst, uint16(v))
	case 4:
		return binary.LittleEndian.AppendUint32(dst, uint32(v))
	default:
		return binary.LittleEndian.AppendUint64(dst, v)
	}
}

// readColValue reads a fixed-width column value.
func readColValue(b []byte, col int) uint64 {
	switch colRawWidth[col] {
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// zigzag folds sign into the low bit so small negatives varint-encode
// small; unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// columnarEncoder turns tuple batches into version-2 blocks. All its
// buffers are reused across blocks, so a warm encoder allocates nothing
// on the write path. Not safe for concurrent use; the writer owns one
// under its lock.
type columnarEncoder struct {
	block []byte             // assembled block, valid until the next encodeBlock
	col   [numColumns][]byte // per-column payload scratch
	dict  map[uint64]uint8   // value -> index, cleared per column
	vals  []uint64           // dictionary values in first-appearance order
}

// encodeDictOrRaw writes the column dictionary-coded, falling back to
// raw fixed-width values when the batch has more than 256 distinct
// values. Returns the encoding chosen.
func (e *columnarEncoder) encodeDictOrRaw(tuples []collect.TraceTuple, col int) byte {
	if e.dict == nil {
		e.dict = make(map[uint64]uint8, v2MaxDictEntries)
	}
	clear(e.dict)
	e.vals = e.vals[:0]
	for i := range tuples {
		v := colValue(&tuples[i], col)
		if _, ok := e.dict[v]; !ok {
			if len(e.vals) == v2MaxDictEntries {
				return e.encodeRaw(tuples, col)
			}
			e.dict[v] = uint8(len(e.vals))
			e.vals = append(e.vals, v)
		}
	}
	p := e.col[col][:0]
	p = binary.LittleEndian.AppendUint16(p, uint16(len(e.vals)))
	for _, v := range e.vals {
		p = appendColValue(p, col, v)
	}
	for i := range tuples {
		p = append(p, e.dict[colValue(&tuples[i], col)])
	}
	e.col[col] = p
	return colEncDict
}

// encodeRaw writes the column as fixed-width values.
func (e *columnarEncoder) encodeRaw(tuples []collect.TraceTuple, col int) byte {
	p := e.col[col][:0]
	for i := range tuples {
		p = appendColValue(p, col, colValue(&tuples[i], col))
	}
	e.col[col] = p
	return colEncRaw
}

// encodeDelta writes the column as zigzag-varint differences from the
// previous value (wrapping, so arbitrary values round-trip).
func (e *columnarEncoder) encodeDelta(tuples []collect.TraceTuple, col int) byte {
	p := e.col[col][:0]
	var prev uint64
	for i := range tuples {
		v := colValue(&tuples[i], col)
		p = binary.AppendUvarint(p, zigzag(int64(v-prev)))
		prev = v
	}
	e.col[col] = p
	return colEncDelta
}

// encodeLatency writes the End column as zigzag-varints of End-Start.
func (e *columnarEncoder) encodeLatency(tuples []collect.TraceTuple) byte {
	p := e.col[colEnd][:0]
	for i := range tuples {
		d := uint64(tuples[i].End) - uint64(tuples[i].Start)
		p = binary.AppendUvarint(p, zigzag(int64(d)))
	}
	e.col[colEnd] = p
	return colEncLatency
}

// encodeBlock assembles one version-2 block. The returned slice aliases
// the encoder's scratch buffer: it is valid until the next call.
func (e *columnarEncoder) encodeBlock(tuples []collect.TraceTuple) []byte {
	var enc [numColumns]byte
	enc[colECID] = e.encodeDictOrRaw(tuples, colECID)
	enc[colOp] = e.encodeDictOrRaw(tuples, colOp)
	enc[colRet] = e.encodeDictOrRaw(tuples, colRet)
	enc[colSeq] = e.encodeDelta(tuples, colSeq)
	enc[colStart] = e.encodeDelta(tuples, colStart)
	enc[colEnd] = e.encodeLatency(tuples)

	colBytes := v2DirSize
	for c := range e.col {
		colBytes += len(e.col[c])
	}
	b := e.block[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tuples)))
	b = binary.LittleEndian.AppendUint32(b, uint32(colBytes))
	b = binary.LittleEndian.AppendUint32(b, 0) // directory CRC, patched below
	for c := 0; c < numColumns; c++ {
		b = append(b, enc[c])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.col[c])))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(e.col[c]))
	}
	binary.LittleEndian.PutUint32(b[8:12], crc32.ChecksumIEEE(b[v2BlockHeaderSize:v2BlockHeaderSize+v2DirSize]))
	for c := 0; c < numColumns; c++ {
		b = append(b, e.col[c]...)
	}
	e.block = b
	return b
}

// columnarFrame is a version-2 block located inside a segment image:
// header and directory validated, column payloads sliced out but not
// yet checksummed or decoded.
type columnarFrame struct {
	count int
	size  int64 // total framed size, header included
	enc   [numColumns]byte
	crc   [numColumns]uint32
	col   [numColumns][]byte
}

// frameColumnarBlock locates the next version-2 block at the start of
// rest. It validates bounds and the directory CRC only — cheap enough
// to run on every block — leaving per-column CRCs to the decode (or the
// skip check) so untouched columns cost nothing. ok=false means a torn
// or corrupt tail.
func frameColumnarBlock(rest []byte) (columnarFrame, bool) {
	var f columnarFrame
	if len(rest) < v2BlockHeaderSize+v2DirSize {
		return f, false
	}
	count := binary.LittleEndian.Uint32(rest[0:4])
	if count == 0 || count > MaxBlockTuples {
		return f, false
	}
	colBytes := int64(binary.LittleEndian.Uint32(rest[4:8]))
	if colBytes < v2DirSize || v2BlockHeaderSize+colBytes > int64(len(rest)) {
		return f, false
	}
	dir := rest[v2BlockHeaderSize : v2BlockHeaderSize+v2DirSize]
	if crc32.ChecksumIEEE(dir) != binary.LittleEndian.Uint32(rest[8:12]) {
		return f, false
	}
	f.count = int(count)
	off := int64(v2BlockHeaderSize + v2DirSize)
	end := v2BlockHeaderSize + colBytes
	for c := 0; c < numColumns; c++ {
		ent := dir[c*v2DirEntrySize : (c+1)*v2DirEntrySize]
		f.enc[c] = ent[0]
		n := int64(binary.LittleEndian.Uint32(ent[1:5]))
		f.crc[c] = binary.LittleEndian.Uint32(ent[5:9])
		if f.enc[c] > colEncLatency || n > end-off {
			return f, false
		}
		f.col[c] = rest[off : off+n]
		off += n
	}
	if off != end {
		return f, false
	}
	f.size = end
	return f, true
}

// blockDecoder decodes blocks into a reused tuple batch, so a scan's
// per-block cost is bounds checks and column reads, not allocation. The
// returned batches alias dec.batch: valid until the next decode. Not
// safe for concurrent use; each scan owns one.
type blockDecoder struct {
	batch []collect.TraceTuple
	dict  []uint64
}

// decodeColumnar fully validates and decodes a framed version-2 block.
// Any failure (column CRC, short payload, bad dictionary index, varint
// overrun) is a torn/corrupt block.
func (d *blockDecoder) decodeColumnar(f *columnarFrame) ([]collect.TraceTuple, error) {
	if cap(d.batch) < f.count {
		d.batch = make([]collect.TraceTuple, f.count)
	}
	batch := d.batch[:f.count]
	for c := 0; c < numColumns; c++ {
		if err := d.decodeColumn(f, c, batch); err != nil {
			return nil, err
		}
	}
	d.batch = batch
	return batch, nil
}

// decodeColumn validates one column's CRC and decodes it into the
// batch. Column order matters only for latency, which reconstructs End
// from the already-decoded Start.
func (d *blockDecoder) decodeColumn(f *columnarFrame, col int, batch []collect.TraceTuple) error {
	p := f.col[col]
	if crc32.ChecksumIEEE(p) != f.crc[col] {
		return fmt.Errorf("archive: %s column CRC mismatch", colName[col])
	}
	switch f.enc[col] {
	case colEncRaw:
		w := colRawWidth[col]
		if len(p) != len(batch)*w {
			return fmt.Errorf("archive: %s column: %d raw bytes for %d tuples", colName[col], len(p), len(batch))
		}
		for i := range batch {
			setColValue(&batch[i], col, readColValue(p[i*w:], col))
		}
	case colEncDict:
		n, vals, idx, err := d.splitDict(p, col)
		if err != nil {
			return err
		}
		if len(idx) != len(batch) {
			return fmt.Errorf("archive: %s column: %d dictionary indexes for %d tuples", colName[col], len(idx), len(batch))
		}
		w := colRawWidth[col]
		for i, ix := range idx {
			if int(ix) >= n {
				return fmt.Errorf("archive: %s column: dictionary index %d out of %d", colName[col], ix, n)
			}
			setColValue(&batch[i], col, readColValue(vals[int(ix)*w:], col))
		}
	case colEncDelta:
		var prev uint64
		off := 0
		for i := range batch {
			u, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return fmt.Errorf("archive: %s column: truncated varint at %d", colName[col], off)
			}
			off += n
			prev += uint64(unzigzag(u))
			setColValue(&batch[i], col, prev)
		}
		if off != len(p) {
			return fmt.Errorf("archive: %s column: %d trailing bytes", colName[col], len(p)-off)
		}
	case colEncLatency:
		if col != colEnd {
			return fmt.Errorf("archive: latency encoding on %s column", colName[col])
		}
		off := 0
		for i := range batch {
			u, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return fmt.Errorf("archive: %s column: truncated varint at %d", colName[col], off)
			}
			off += n
			batch[i].End = int64(uint64(batch[i].Start) + uint64(unzigzag(u)))
		}
		if off != len(p) {
			return fmt.Errorf("archive: %s column: %d trailing bytes", colName[col], len(p)-off)
		}
	default:
		return fmt.Errorf("archive: %s column: unknown encoding %d", colName[col], f.enc[col])
	}
	return nil
}

// splitDict splits a dictionary payload into its value table and index
// bytes, validating the framing.
func (d *blockDecoder) splitDict(p []byte, col int) (n int, vals, idx []byte, err error) {
	if len(p) < 2 {
		return 0, nil, nil, fmt.Errorf("archive: %s column: short dictionary", colName[col])
	}
	n = int(binary.LittleEndian.Uint16(p[0:2]))
	w := colRawWidth[col]
	if n == 0 || n > v2MaxDictEntries || len(p) < 2+n*w {
		return 0, nil, nil, fmt.Errorf("archive: %s column: dictionary of %d values in %d bytes", colName[col], n, len(p))
	}
	return n, p[2 : 2+n*w], p[2+n*w:], nil
}

// dictValues checksums the column and decodes just its dictionary
// values (not the per-tuple indexes) into the decoder's scratch. The
// CRC check first is what keeps the skip path honest: a corrupt block
// is never silently skipped — the check fails, the caller falls through
// to the full decode, and the decode reports the tear.
func (d *blockDecoder) dictValues(f *columnarFrame, col int) ([]uint64, bool) {
	p := f.col[col]
	if crc32.ChecksumIEEE(p) != f.crc[col] {
		return nil, false
	}
	n, vals, _, err := d.splitDict(p, col)
	if err != nil {
		return nil, false
	}
	w := colRawWidth[col]
	d.dict = d.dict[:0]
	for i := 0; i < n; i++ {
		d.dict = append(d.dict, readColValue(vals[i*w:], col))
	}
	return d.dict, true
}

// skipColumnar reports whether the block's dictionaries prove no tuple
// in it can match q, without decoding the block. This is the columnar
// pushdown: a query for one collector or one op kind touches only the
// dictionary bytes of blocks it skips.
func (d *blockDecoder) skipColumnar(f *columnarFrame, q *Query) bool {
	if len(q.ECIDs) > 0 && f.enc[colECID] == colEncDict {
		if vals, ok := d.dictValues(f, colECID); ok && !dictHasECID(vals, q.ECIDs) {
			return true
		}
	}
	if len(q.Ops) > 0 && f.enc[colOp] == colEncDict {
		if vals, ok := d.dictValues(f, colOp); ok && !dictHasOp(vals, q.Ops) {
			return true
		}
	}
	return false
}

func dictHasECID(vals []uint64, ecids []uint32) bool {
	for _, v := range vals {
		for _, id := range ecids {
			if uint32(v) == id {
				return true
			}
		}
	}
	return false
}

func dictHasOp(vals []uint64, ops []paths.OpKind) bool {
	for _, v := range vals {
		for _, op := range ops {
			if paths.OpKind(uint16(v)) == op {
				return true
			}
		}
	}
	return false
}
