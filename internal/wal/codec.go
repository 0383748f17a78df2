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

// Mutation record payload (inside a WAL frame, little-endian):
//
//	[kind u8][row u64][nvals u32][vals nvals × i64]
//
// Appends carry the full tuple (nvals = arity); deletes carry none —
// the tombstoned row's values are already in every checkpointed or
// rebuilt storage, so replay needs only the row id.
//
// A batched append (one record per AppendRows batch, so bulk ingest
// pays one frame, one CRC, and one log append per ack) uses its own
// kind byte, disjoint from relation.MutKind values:
//
//	[kind=2 u8][start u64][n u32][arity u32][cols arity × n × i64]
//
// covering rows [start, start+n), column-major; the frame's seq is the
// relation version after the batch's LAST row.

// batchKind tags a batched-append payload (relation.MutKind uses 0/1).
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

// AppendMutation appends m's wire encoding to buf and returns the
// extended slice.
func AppendMutation(buf []byte, m relation.Mutation) []byte {
	buf = append(buf, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Row))
	if m.Kind == relation.MutDelete {
		return binary.LittleEndian.AppendUint32(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Vals)))
	for _, v := range m.Vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// DecodeMutation parses a payload produced by AppendMutation.
func DecodeMutation(p []byte) (relation.Mutation, error) {
	var m relation.Mutation
	if len(p) < 13 {
		return m, fmt.Errorf("wal: mutation record of %d bytes is too short", len(p))
	}
	m.Kind = relation.MutKind(p[0])
	if m.Kind != relation.MutAppend && m.Kind != relation.MutDelete {
		return m, fmt.Errorf("wal: unknown mutation kind %d", p[0])
	}
	m.Row = int(binary.LittleEndian.Uint64(p[1:9]))
	nvals := binary.LittleEndian.Uint32(p[9:13])
	rest := p[13:]
	if uint64(len(rest)) != uint64(nvals)*8 {
		return m, fmt.Errorf("wal: mutation record claims %d values, carries %d bytes", nvals, len(rest))
	}
	if nvals > 0 {
		vals := make(relation.Tuple, nvals)
		for i := range vals {
			vals[i] = relation.Value(binary.LittleEndian.Uint64(rest[i*8 : i*8+8]))
		}
		m.Vals = vals
	}
	return m, nil
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

// decodeBatchRecord parses a batched-append payload of either kind into
// its idempotency tag ("" when untagged), the starting physical row and
// the appended tuples, in append order.
func decodeBatchRecord(p []byte) (tag string, start int, rows []relation.Tuple, err error) {
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
	arity := binary.LittleEndian.Uint32(p[12:16])
	rest := p[16:]
	if n == 0 || uint64(len(rest)) != uint64(n)*uint64(arity)*8 {
		return "", 0, nil, fmt.Errorf("wal: batch record claims %d x %d values, carries %d bytes", n, arity, len(rest))
	}
	rows = make([]relation.Tuple, n)
	flat := make(relation.Tuple, int(n)*int(arity))
	for i := range rows {
		rows[i] = flat[i*int(arity) : (i+1)*int(arity)]
	}
	for a := 0; a < int(arity); a++ {
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
