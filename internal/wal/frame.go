package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// This file is the only code that knows the record frame layout (see
// the package comment): every encoder fills its header through
// putFrameHeader, every decoder validates through frameLen and
// checkFrame. The log, the open-time scan, Replay, StreamCursor and the
// replication follower all sit on these.

const (
	// headerSize is the fixed frame prefix: len u32, crc u32, seq u64.
	headerSize = 16
	// MaxRecordLen bounds a frame's payload; a length field past it is
	// damage, not a record.
	MaxRecordLen = 64 << 20
)

// readChunk is how much of a declared payload FrameReader allocates
// ahead of the bytes arriving.
const readChunk = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame reports a frame whose length field or checksum is
// invalid: the bytes are damaged (or the reader lost frame alignment)
// and nothing past this point can be trusted. A frame that merely ends
// early is io.ErrUnexpectedEOF instead.
var ErrBadFrame = errors.New("wal: bad frame")

// putFrameHeader fills hdr, the headerSize bytes in front of payload.
func putFrameHeader(hdr []byte, seq uint64, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
}

// AppendFrame appends one frame carrying payload at seq to dst.
func AppendFrame(dst []byte, seq uint64, payload []byte) []byte {
	head := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	dst = append(dst, payload...)
	putFrameHeader(dst[head:head+headerSize], seq, payload)
	return dst
}

// frameLen returns the payload length a header declares.
func frameLen(hdr []byte) (int, error) {
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	if ln > MaxRecordLen {
		return 0, fmt.Errorf("%w: length %d", ErrBadFrame, ln)
	}
	return int(ln), nil
}

// checkFrame verifies a complete frame's checksum and returns its seq.
func checkFrame(hdr, payload []byte) (uint64, error) {
	seq := binary.LittleEndian.Uint64(hdr[8:16])
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, fmt.Errorf("%w: checksum mismatch at seq %d", ErrBadFrame, seq)
	}
	return seq, nil
}

// FrameReader decodes and validates frames off a byte stream: a segment
// file at open and replay, a replication response body on a follower.
type FrameReader struct {
	br  *bufio.Reader
	hdr [headerSize]byte
	buf []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next validated frame. The payload slice is reused by
// the following call. It returns io.EOF on a clean end at a frame
// boundary, io.ErrUnexpectedEOF when the stream ends inside a frame, and
// ErrBadFrame (wrapped with detail) when a length or checksum check
// fails.
func (fr *FrameReader) Next() (seq uint64, payload []byte, err error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return 0, nil, err // ReadFull already tells a boundary from a torn header
	}
	ln, err := frameLen(fr.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	// The declared length is believed a chunk at a time, so a damaged
	// one costs no more memory than the bytes that actually follow.
	fr.buf = fr.buf[:0]
	for len(fr.buf) < ln {
		have := len(fr.buf)
		fr.buf = slices.Grow(fr.buf, min(ln-have, readChunk))[:min(ln, have+readChunk)]
		if _, err := io.ReadFull(fr.br, fr.buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	if seq, err = checkFrame(fr.hdr[:], fr.buf); err != nil {
		return 0, nil, err
	}
	return seq, fr.buf, nil
}

// Buffered reports bytes already pulled off the stream but not yet
// decoded; a follower uses 0 here as "caught up with the wire" and
// refreshes its samplers at that boundary instead of per frame.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// isTear reports whether a frame-decoding error means the bytes stop
// being a log here (torn or damaged frame), as opposed to an I/O
// failure or a callback's own error.
func isTear(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrBadFrame)
}
