package fcache

import (
	"encoding/binary"
	"hash/crc32"

	"dfmresyn/internal/fault"
)

// Record codec: the binary form of one ExportedEntry, shared by the verdict
// store's segments (package vstore) and a resynthesis checkpoint's verdict
// log (package resyn). A record is, little-endian:
//
//	magic u16 | status u8 | key 2×u64 | len(Init) u32 | len(Vec) u32 | Init | Vec | CRC-32 u32
//
// The CRC covers every byte before it. The magic and the explicit lengths
// make a decoder that lands on damaged bytes fail at once instead of
// misreading lengths from garbage.

// recMagic starts every record.
const recMagic = uint16(0xD51E)

// recFixed is the size of a record's fixed-width head: magic, status, key
// and the two lengths.
const recFixed = 2 + 1 + 8 + 8 + 4 + 4

// MaxVecLen bounds the witness-vector lengths a decoder will accept. It is
// far above any real circuit's PI count and low enough that a damaged
// length field cannot balloon memory.
const MaxVecLen = 1 << 20

// AppendRecord encodes e onto buf.
func AppendRecord(buf []byte, e ExportedEntry) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, recMagic)
	buf = append(buf, byte(e.Status))
	buf = binary.LittleEndian.AppendUint64(buf, e.Key[0])
	buf = binary.LittleEndian.AppendUint64(buf, e.Key[1])
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Init)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Vec)))
	buf = append(buf, e.Init...)
	buf = append(buf, e.Vec...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// DecodeRecord decodes the record at data[off:]. It returns the entry, the
// offset just past the record, and whether the record was intact: magic,
// lengths, CRC, a verdict status and a nonzero key. The entry's vectors
// alias data. It never panics on arbitrary bytes (pinned by FuzzVstore and
// FuzzCheckpointDecode).
func DecodeRecord(data []byte, off int) (ExportedEntry, int, bool) {
	var e ExportedEntry
	if off < 0 || off+recFixed > len(data) {
		return e, 0, false
	}
	if binary.LittleEndian.Uint16(data[off:]) != recMagic {
		return e, 0, false
	}
	st := fault.Status(data[off+2])
	if st != fault.Detected && st != fault.Undetectable {
		return e, 0, false
	}
	e.Status = st
	e.Key[0] = binary.LittleEndian.Uint64(data[off+3:])
	e.Key[1] = binary.LittleEndian.Uint64(data[off+11:])
	initLen := binary.LittleEndian.Uint32(data[off+19:])
	vecLen := binary.LittleEndian.Uint32(data[off+23:])
	if initLen > MaxVecLen || vecLen > MaxVecLen {
		return e, 0, false
	}
	mid := off + recFixed + int(initLen)
	end := mid + int(vecLen)
	if end+4 > len(data) {
		return e, 0, false
	}
	if crc32.ChecksumIEEE(data[off:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return e, 0, false
	}
	if e.Key.Zero() {
		return e, 0, false
	}
	if initLen > 0 {
		e.Init = data[off+recFixed : mid : mid]
	}
	if vecLen > 0 {
		e.Vec = data[mid:end:end]
	}
	return e, end + 4, true
}

// DecodeRecords decodes records from the start of data up to the first one
// that is not intact. It returns the intact entries and the offset where
// decoding stopped: len(data) when every record is intact, else the start of
// the first damaged one. The vectors alias data.
func DecodeRecords(data []byte) ([]ExportedEntry, int) {
	var entries []ExportedEntry
	off := 0
	for off < len(data) {
		e, next, ok := DecodeRecord(data, off)
		if !ok {
			break
		}
		entries = append(entries, e)
		off = next
	}
	return entries, off
}
