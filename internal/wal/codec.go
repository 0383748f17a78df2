package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"sampleunion/internal/relation"
)

// Record payloads (inside a WAL frame, little-endian) come in two
// kinds. A delete carries the tombstoned row's id alone — its values are
// already in every checkpointed or rebuilt storage:
//
//	[kind=1 u8][row u64][nvals u32 = 0]
//
// Every append is a batched append (one record per batch, Append's
// single row included, so bulk ingest pays one frame, one CRC, and one
// log append per ack):
//
//	[kind=2 u8][start u64][n u32][arity u32][cols arity × n × i64]
//
// covering rows [start, start+n), column-major; the frame's seq is the
// relation version after the batch's LAST row. Kind 0, a single-row
// append with its values, is no longer written and ApplyRecord refuses
// it.

// deleteKind tags a delete payload (relation.MutDelete's value), and
// deleteRecordLen is its size.
const (
	deleteKind      = 1
	deleteRecordLen = 13
)

// batchKind tags a batched-append payload.
const batchKind = 2

// taggedBatchKind tags a batched append carrying an idempotency key,
// which sits between the kind byte and the untagged body:
//
//	[kind=3 u8][klen u16][key klen bytes][start u64][n u32][arity u32][cols]
//
// The key is the client-supplied Idempotency-Key of the append that
// produced the batch; recovery and replication surface it so retry
// deduplication survives restarts and follower promotion.
const taggedBatchKind = 3

// maxIdemKeyLen bounds a persisted idempotency key (the u16 klen field).
const maxIdemKeyLen = 1 << 16

// encodeDeleteRecord fills dst — exactly deleteRecordLen bytes — with
// the delete of row.
func encodeDeleteRecord(dst []byte, row int) {
	dst[0] = deleteKind
	binary.LittleEndian.PutUint64(dst[1:9], uint64(row))
	binary.LittleEndian.PutUint32(dst[9:13], 0)
}

// decodeDeleteRecord parses a payload encodeDeleteRecord wrote.
func decodeDeleteRecord(p []byte) (row int, err error) {
	if len(p) != deleteRecordLen || p[0] != deleteKind || binary.LittleEndian.Uint32(p[9:13]) != 0 {
		return 0, fmt.Errorf("wal: delete record of %d bytes is malformed", len(p))
	}
	return int(binary.LittleEndian.Uint64(p[1:9])), nil
}

// batchRecordLen is the payload size of a batched append of n rows at
// the given arity; an empty tag selects the untagged kind.
func batchRecordLen(tag string, n, arity int) int {
	ln := 1 + 16 + n*arity*8 // kind, then start + n + arity
	if tag != "" {
		ln += 2 + len(tag)
	}
	return ln
}

// encodeBatchRecord fills dst — exactly batchRecordLen bytes — with the
// batched append of rows [start, start+n) read from the published
// column vectors. It encodes with indexed stores into a caller-reserved
// buffer because it sits on the ack path of every bulk ingest, where a
// second pass or copy is measurable against the in-memory append cost.
func encodeBatchRecord(dst []byte, tag string, start, n int, cols [][]relation.Value) {
	dst[0] = batchKind
	p := dst[1:]
	if tag != "" {
		dst[0] = taggedBatchKind
		binary.LittleEndian.PutUint16(p[0:2], uint16(len(tag)))
		copy(p[2:], tag)
		p = p[2+len(tag):]
	}
	binary.LittleEndian.PutUint64(p[0:8], uint64(start))
	binary.LittleEndian.PutUint32(p[8:12], uint32(n))
	binary.LittleEndian.PutUint32(p[12:16], uint32(len(cols)))
	p = p[16:]
	for _, col := range cols {
		for i, v := range col[start : start+n] {
			binary.LittleEndian.PutUint64(p[i*8:i*8+8], uint64(v))
		}
		p = p[n*8:]
	}
}

// decodeBatchRecord parses a batched-append payload of either kind for a
// relation of the given arity into its idempotency tag ("" when
// untagged), the starting physical row and the appended tuples, in
// append order. It refuses another arity, or a row count the payload
// does not carry, before it allocates, so a hostile record cannot make
// it allocate what it claims.
func decodeBatchRecord(p []byte, arity int) (tag string, start int, rows []relation.Tuple, err error) {
	if len(p) < 1 || p[0] != batchKind && p[0] != taggedBatchKind {
		return "", 0, nil, fmt.Errorf("wal: batch record of %d bytes is malformed", len(p))
	}
	tagged := p[0] == taggedBatchKind
	p = p[1:]
	if tagged {
		if len(p) < 2 || len(p) < 2+int(binary.LittleEndian.Uint16(p)) {
			return "", 0, nil, fmt.Errorf("wal: tagged batch record truncates its key")
		}
		klen := int(binary.LittleEndian.Uint16(p))
		tag, p = string(p[2:2+klen]), p[2+klen:]
	}
	if len(p) < 16 {
		return "", 0, nil, fmt.Errorf("wal: batch record body of %d bytes is malformed", len(p))
	}
	start = int(binary.LittleEndian.Uint64(p[0:8]))
	n := binary.LittleEndian.Uint32(p[8:12])
	if ar := binary.LittleEndian.Uint32(p[12:16]); uint64(ar) != uint64(arity) {
		return "", 0, nil, fmt.Errorf("wal: batch record arity %d, want %d", ar, arity)
	}
	rest := p[16:]
	if n == 0 || uint64(len(rest)) != uint64(n)*uint64(arity)*8 {
		return "", 0, nil, fmt.Errorf("wal: batch record claims %d x %d values, carries %d bytes", n, arity, len(rest))
	}
	rows = make([]relation.Tuple, n)
	flat := make(relation.Tuple, int(n)*arity)
	for i := range rows {
		rows[i] = flat[i*arity : (i+1)*arity]
	}
	for a := 0; a < arity; a++ {
		for i := 0; i < int(n); i++ {
			rows[i][a] = relation.Value(binary.LittleEndian.Uint64(rest[:8]))
			rest = rest[8:]
		}
	}
	return tag, start, rows, nil
}

// Checkpoint file layout (little-endian), named %016x.ckpt after the
// version it covers:
//
//	magic "SUCKPT01" | version u64 | rows u64 | live u64 | arity u64 |
//	ndead u64 | dead ndead × u64 | cols arity × rows × i64 | crc u32
//
// crc is CRC-32C over everything before it. The file is written with
// WriteFileAtomic, so a crash mid-checkpoint leaves the previous
// checkpoint intact.

const ckptMagic = "SUCKPT01"

// WriteCheckpoint atomically persists sd at path (see WriteFileAtomic).
func WriteCheckpoint(path string, sd relation.SnapshotData) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteCheckpointTo(w, sd) })
}

// WriteCheckpointTo streams sd's SUCKPT01 encoding — the exact bytes a
// checkpoint file holds — to w. It is the wire side of checkpointing:
// the replication snapshot endpoint writes a captured snapshot straight
// into an HTTP response with it, no temp file.
func WriteCheckpointTo(w io.Writer, sd relation.SnapshotData) error {
	cw := &crcWriter{w: w}
	var u64 [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		cw.Write(u64[:])
	}
	cw.Write([]byte(ckptMagic))
	writeU64(sd.Version)
	writeU64(uint64(sd.Rows))
	writeU64(uint64(sd.Live))
	writeU64(uint64(len(sd.Cols)))
	writeU64(uint64(len(sd.Dead)))
	for _, d := range sd.Dead {
		writeU64(d)
	}
	for _, col := range sd.Cols {
		for i := 0; i < sd.Rows; i++ {
			writeU64(uint64(col[i]))
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.crc)
	cw.Write(crc[:])
	if cw.err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", cw.err)
	}
	return nil
}

// crcWriter accumulates a CRC-32C alongside writes. The trailer is
// written through it too, but only after the checksum value has been
// taken, so the stored crc covers exactly the body.
type crcWriter struct {
	w   io.Writer
	crc uint32
	err error
}

func (c *crcWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.crc = crc32.Update(c.crc, castagnoli, p)
	_, c.err = c.w.Write(p)
	return len(p), c.err
}

// ReadCheckpoint parses a checkpoint for a relation of the given
// arity, validating magic, shape, and checksum.
func ReadCheckpoint(path string, arity int) (relation.SnapshotData, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return relation.SnapshotData{}, fmt.Errorf("wal: %w", err)
	}
	sd, err := DecodeCheckpoint(raw, arity)
	if err != nil {
		return sd, fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
	}
	return sd, nil
}

// DecodeCheckpoint parses an in-memory SUCKPT01 image (a checkpoint
// file's bytes, or a replication snapshot response) for a relation of
// the given arity, validating magic, shape, and checksum.
func DecodeCheckpoint(raw []byte, arity int) (relation.SnapshotData, error) {
	var sd relation.SnapshotData
	if len(raw) < len(ckptMagic)+5*8+4 || string(raw[:len(ckptMagic)]) != ckptMagic {
		return sd, fmt.Errorf("wal: not a checkpoint")
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return sd, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	p := body[len(ckptMagic):]
	readU64 := func() uint64 {
		v := binary.LittleEndian.Uint64(p[:8])
		p = p[8:]
		return v
	}
	sd.Version = readU64()
	rows, live, ar, ndead := readU64(), readU64(), readU64(), readU64()
	if int(ar) != arity {
		return sd, fmt.Errorf("wal: checkpoint arity %d, want %d", ar, arity)
	}
	need := (ndead + ar*rows) * 8
	if uint64(len(p)) != need {
		return sd, fmt.Errorf("wal: truncated checkpoint body")
	}
	sd.Rows, sd.Live = int(rows), int(live)
	if ndead > 0 {
		sd.Dead = make([]uint64, ndead)
		for i := range sd.Dead {
			sd.Dead[i] = readU64()
		}
	}
	sd.Cols = make([][]relation.Value, ar)
	for a := range sd.Cols {
		col := make([]relation.Value, rows)
		for i := range col {
			col[i] = relation.Value(readU64())
		}
		sd.Cols[a] = col
	}
	return sd, nil
}
