package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decodeStreamFrames splits a stream buffer back into validated
// (seq, payload) pairs, asserting seqs come out strictly increasing.
func decodeStreamFrames(t *testing.T, b []byte) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	last := uint64(0)
	for len(b) > 0 {
		if len(b) < headerSize {
			t.Fatalf("trailing %d bytes are not a frame", len(b))
		}
		ln := binary.LittleEndian.Uint32(b[0:4])
		need := headerSize + int(ln)
		if len(b) < need {
			t.Fatalf("frame needs %d bytes, buffer has %d", need, len(b))
		}
		if crc32.Update(0, castagnoli, b[8:need]) != binary.LittleEndian.Uint32(b[4:8]) {
			t.Fatal("streamed frame fails its checksum")
		}
		seq := binary.LittleEndian.Uint64(b[8:16])
		if seq <= last {
			t.Fatalf("stream out of order: seq %d after %d", seq, last)
		}
		last = seq
		out[seq] = string(b[headerSize:need])
		b = b[need:]
	}
	return out
}

func TestStreamCursorTailFollow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 50; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	cur := l.StreamFrom(0)
	defer cur.Close()
	buf, err := cur.Read(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeStreamFrames(t, buf)
	if len(got) != 50 || got[1] != "rec-1" || got[50] != "rec-50" {
		t.Fatalf("first read: %d frames (want 50): %q %q", len(got), got[1], got[50])
	}
	if cur.Seq() != 50 {
		t.Fatalf("cursor at %d, want 50", cur.Seq())
	}
	// Caught up: the live tail yields nothing, with no error.
	if buf, err = cur.Read(nil, 1<<20); err != nil || len(buf) != 0 {
		t.Fatalf("idle read: %d bytes, err %v", len(buf), err)
	}
	// New appends become visible on the next read.
	for seq := uint64(51); seq <= 60; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if buf, err = cur.Read(nil, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got = decodeStreamFrames(t, buf); len(got) != 10 || got[60] != "rec-60" {
		t.Fatalf("tail read: %d frames (want 10)", len(got))
	}
}

func TestStreamCursorAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 200; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(l.segs); n < 3 {
		t.Fatalf("want >= 3 segments for the test to bite, got %d", n)
	}
	// Drain in small bites so reads straddle segment boundaries, from a
	// mid-stream start.
	cur := l.StreamFrom(17)
	defer cur.Close()
	all := map[uint64]string{}
	for {
		buf, err := cur.Read(nil, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			break
		}
		for seq, p := range decodeStreamFrames(t, buf) {
			all[seq] = p
		}
	}
	if len(all) != 183 {
		t.Fatalf("streamed %d frames from 17, want 183", len(all))
	}
	if _, ok := all[17]; ok {
		t.Fatal("frame at the start position leaked (want seq > 17 only)")
	}
	if all[18] != "rec-18" || all[200] != "rec-200" {
		t.Fatalf("boundary frames wrong: %q %q", all[18], all[200])
	}
}

func TestStreamCursorCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 100; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d (err %v)", len(segs), err)
	}
	// Flip one byte inside the first (sealed) segment.
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(segs[0], raw, 0o666); err != nil {
		t.Fatal(err)
	}
	cur := l.StreamFrom(0)
	defer cur.Close()
	var streamErr error
	for i := 0; i < 300; i++ {
		buf, err := cur.Read(nil, 64)
		if err != nil {
			streamErr = err
			break
		}
		if len(buf) == 0 {
			break
		}
	}
	if streamErr == nil || !strings.Contains(streamErr.Error(), "corrupt frame mid-log") {
		t.Fatalf("streaming over a corrupt sealed segment: err = %v, want corrupt mid-log", streamErr)
	}
}

func TestStreamCursorTornTailIsQuiet(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testOpts(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Scribble a partial frame onto the live tail, as a crash mid-write
	// would: the stream must surface the 10 good frames and stop
	// quietly, not error and not leak garbage.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cur := l.StreamFrom(0)
	defer cur.Close()
	buf, err := cur.Read(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeStreamFrames(t, buf); len(got) != 10 {
		t.Fatalf("torn tail: %d frames, want 10", len(got))
	}
	if buf, err = cur.Read(nil, 1<<20); err != nil || len(buf) != 0 {
		t.Fatalf("second read over torn tail: %d bytes, err %v", len(buf), err)
	}
}

func TestStreamCursorAfterTruncationStartsPastGap(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 100; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(50); err != nil {
		t.Fatal(err)
	}
	// A cursor positioned below the retained range gets whatever is
	// still on disk; the gap shows up as a seq jump the consumer's
	// contiguity check (ApplyRecord) turns into a resync.
	cur := l.StreamFrom(0)
	defer cur.Close()
	buf, err := cur.Read(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeStreamFrames(t, buf)
	if _, ok := got[100]; !ok {
		t.Fatal("retained tail record missing from stream")
	}
	min := uint64(1 << 62)
	for seq := range got {
		if seq < min {
			min = seq
		}
	}
	if min <= 1 {
		t.Fatalf("stream starts at %d; truncation should have removed the head", min)
	}
}
