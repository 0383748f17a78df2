package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrTruncated reports that a streaming cursor's next records were
// truncated out of the log (checkpointing removed the segment before
// the cursor reached it). The consumer must resync from a snapshot.
var ErrTruncated = errors.New("wal: records truncated past the stream cursor")

// StreamCursor reads raw validated frames out of a live log, in seq
// order, for WAL shipping: the primary side of replication tails the
// log with one and ships the on-disk frame bytes verbatim — the frame
// CRC computed at append time protects the record end to end, with no
// re-encoding. A cursor holds at most one open segment file; reads
// happen outside the log's mutex (only the write-buffer flush and the
// segment-list snapshot take it), so a slow stream consumer never
// backpressures appends. A torn frame at the live tail is an append in
// flight and simply ends the read; a torn or corrupt frame inside a
// sealed segment is real damage and errors.
//
// A cursor is NOT safe for concurrent use; each stream owns its own.
type StreamCursor struct {
	l   *Log
	seq uint64 // last seq handed out (frames <= seq are skipped)

	f     *os.File
	first uint64 // first seq of the open segment (identifies it)
	off   int64

	// endedClean records whether the last segment scan stopped at a
	// frame boundary (clean EOF) rather than inside a torn or invalid
	// frame.
	endedClean bool
}

// StreamFrom returns a cursor that yields frames with seq > after.
func (l *Log) StreamFrom(after uint64) *StreamCursor {
	return &StreamCursor{l: l, seq: after}
}

// Seq reports the seq of the last frame the cursor handed out (or the
// starting position before any read).
func (c *StreamCursor) Seq() uint64 { return c.seq }

// Close releases the cursor's open segment file.
func (c *StreamCursor) Close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// segmentsForStream flushes the write buffer (so committed frames are
// readable from the files) and snapshots the segment list.
func (l *Log) segmentsForStream() ([]segment, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeOutLocked(true, false); err != nil {
		return nil, err
	}
	return append([]segment(nil), l.segs...), nil
}

// Read appends raw frames with seq > Seq() to dst, stopping once at
// least maxBytes of frame data have been gathered or the committed log
// tail is reached, and returns the extended slice. An empty extension
// with a nil error means no new committed frames exist yet. It returns
// ErrTruncated when the cursor's position was truncated out of the
// log, and a descriptive error on mid-log corruption.
func (c *StreamCursor) Read(dst []byte, maxBytes int) ([]byte, error) {
	segs, err := c.l.segmentsForStream()
	if err != nil {
		return dst, err
	}
	limit := len(dst) + maxBytes
	for len(dst) < limit {
		if c.f == nil {
			seg, ok := pickStreamSegment(segs, c.seq)
			if !ok {
				return dst, nil // empty log
			}
			if err := c.open(seg); err != nil {
				return dst, err
			}
		}
		var sawEnd bool
		dst, sawEnd, err = c.fillFromSegment(dst, limit)
		if err != nil {
			return dst, err
		}
		if !sawEnd {
			break // budget filled mid-segment
		}
		next, ok := nextStreamSegment(segs, c.first)
		if !ok {
			// Live tail. Torn bytes here are an append in flight; the
			// next Read picks them up once committed.
			return dst, nil
		}
		if !c.endedClean {
			// Sealed segments were flushed whole before their successor
			// was created; a torn or corrupt frame inside one is damage.
			return dst, fmt.Errorf("wal: stream: corrupt frame mid-log in sealed segment %016x", c.first)
		}
		if err := c.open(next); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// open moves the cursor to the start of seg. A segment that is gone was
// truncated out from under the cursor.
func (c *StreamCursor) open(seg segment) error {
	c.Close()
	f, err := os.Open(seg.path)
	if os.IsNotExist(err) {
		return ErrTruncated
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	c.f, c.first, c.off = f, seg.first, 0
	return nil
}

// fillFromSegment reads frames from the open segment into dst until
// len(dst) reaches limit or the segment has no more complete valid
// frames, skipping frames at or below the cursor seq. sawEnd reports
// that the segment ran out (vs the budget); c.endedClean then tells a
// clean frame-boundary EOF from a torn or invalid frame.
func (c *StreamCursor) fillFromSegment(dst []byte, limit int) ([]byte, bool, error) {
	var hdr [headerSize]byte
	for len(dst) < limit {
		m, err := c.f.ReadAt(hdr[:], c.off)
		if m < headerSize {
			if err != nil && err != io.EOF {
				return dst, false, fmt.Errorf("wal: %w", err)
			}
			c.endedClean = m == 0
			return dst, true, nil
		}
		ln, err := frameLen(hdr[:])
		if err != nil {
			c.endedClean = false
			return dst, true, nil
		}
		need := headerSize + ln
		pos := len(dst)
		dst = append(dst, make([]byte, need)...)
		m, err = c.f.ReadAt(dst[pos:pos+need], c.off)
		if m < need {
			if err != nil && err != io.EOF {
				return dst[:pos], false, fmt.Errorf("wal: %w", err)
			}
			c.endedClean = false
			return dst[:pos], true, nil
		}
		seq, err := checkFrame(dst[pos:pos+headerSize], dst[pos+headerSize:])
		if err != nil {
			c.endedClean = false
			return dst[:pos], true, nil
		}
		c.off += int64(need)
		if seq <= c.seq {
			dst = dst[:pos] // already streamed (reconnect overlap); skip
			continue
		}
		c.seq = seq
	}
	return dst, false, nil
}

// pickStreamSegment chooses the segment holding seq after+1: the last
// segment whose first record is <= after+1, or the earliest segment
// when every segment starts later (the consumer's gap detection decides
// what a leading hole means).
func pickStreamSegment(segs []segment, after uint64) (segment, bool) {
	if len(segs) == 0 {
		return segment{}, false
	}
	pick := segs[0]
	for _, s := range segs {
		if s.first <= after+1 {
			pick = s
		}
	}
	return pick, true
}

// nextStreamSegment returns the earliest segment whose first seq is
// past cur (the open segment's first).
func nextStreamSegment(segs []segment, cur uint64) (segment, bool) {
	for _, s := range segs {
		if s.first > cur {
			return s, true
		}
	}
	return segment{}, false
}
