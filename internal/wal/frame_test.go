package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// frameSpans walks intact segment bytes and returns each frame's
// [start, end) offsets.
func frameSpans(t *testing.T, raw []byte) [][2]int {
	t.Helper()
	var spans [][2]int
	for off := 0; off < len(raw); {
		ln, err := frameLen(raw[off : off+headerSize])
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, [2]int{off, off + headerSize + ln})
		off += headerSize + ln
	}
	return spans
}

// TestDamagedFrames is the one table of frame damage, run through every
// consumer of the frame format with each consumer's documented outcome:
//
//   - FrameReader hands out the intact frames before the damage, then
//     io.ErrUnexpectedEOF for a frame that ends early and ErrBadFrame
//     for one whose checksum or length is wrong.
//   - StreamCursor ships the intact frames; at the damage it is quiet
//     in the log's last segment (an append in flight) and errors in a
//     sealed one.
//   - Replay on the open log fails: Open cut any tolerable tear away,
//     so a tear found later is damage.
//   - Open truncates the log at damage in its last segment (dropping
//     the rest of that segment) and accepts appends past it, and refuses
//     the log when valid records follow in a later segment.
//
// Torn frames are cut at every byte of the victim frame, bad checksums
// flip a byte of the seq and of the payload.
func TestDamagedFrames(t *testing.T) {
	type damage struct {
		name  string
		apply func(raw []byte, start, end int) []byte // returns the damaged file
		want  error                                   // what FrameReader reports at the victim
	}
	var damages []damage
	const victimLen = headerSize + len("rec-00")
	for cut := 1; cut < victimLen; cut++ {
		kind := "torn payload"
		if cut < headerSize {
			kind = "torn header"
		}
		damages = append(damages, damage{fmt.Sprintf("%s, %d bytes left", kind, cut),
			func(raw []byte, start, _ int) []byte { return raw[:start+cut] }, io.ErrUnexpectedEOF})
	}
	for _, at := range []int{8, 15, headerSize, victimLen - 1} {
		damages = append(damages, damage{fmt.Sprintf("bad CRC, byte %d flipped", at),
			func(raw []byte, start, _ int) []byte { raw[start+at] ^= 0x10; return raw }, ErrBadFrame})
	}
	damages = append(damages, damage{"length past the limit",
		func(raw []byte, start, _ int) []byte { raw[start+3] = 0xFF; return raw }, ErrBadFrame})

	const records = 60
	opts := Options{Policy: SyncNever, SegmentBytes: 256}
	positions := []struct {
		name           string
		sealed, atTail bool
	}{
		{"final frame of the log", false, true},
		{"mid-segment in the last segment", false, false},
		{"sealed segment", true, false},
	}
	for _, pos := range positions {
		for _, dmg := range damages {
			t.Run(pos.name+"/"+dmg.name, func(t *testing.T) {
				dir := t.TempDir()
				l, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				for seq := uint64(1); seq <= records; seq++ {
					if err := l.Append(seq, []byte(fmt.Sprintf("rec-%02d", seq))); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Commit(); err != nil {
					t.Fatal(err)
				}
				segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
				sort.Strings(segs)
				if len(segs) < 3 {
					t.Fatalf("want >= 3 segments, got %d", len(segs))
				}
				victimSeg := segs[len(segs)-1]
				if pos.sealed {
					victimSeg = segs[1]
				}
				raw, err := os.ReadFile(victimSeg)
				if err != nil {
					t.Fatal(err)
				}
				spans := frameSpans(t, raw)
				if len(spans) < 3 {
					t.Fatalf("victim segment holds %d frames, want >= 3", len(spans))
				}
				victim := 1 // second frame: intact frames on both sides
				if pos.atTail {
					victim = len(spans) - 1
				}
				// The victim's seq, from the segment's name and its index.
				var segFirst uint64
				fmt.Sscanf(filepath.Base(victimSeg), "%016x", &segFirst)
				victimSeq := segFirst + uint64(victim)
				damaged := dmg.apply(append([]byte(nil), raw...), spans[victim][0], spans[victim][1])
				if err := os.WriteFile(victimSeg, damaged, 0o666); err != nil {
					t.Fatal(err)
				}

				// FrameReader over the damaged segment.
				fr := NewFrameReader(bytes.NewReader(damaged))
				for i := 0; i < victim; i++ {
					if seq, _, err := fr.Next(); err != nil || seq != segFirst+uint64(i) {
						t.Fatalf("FrameReader frame %d before the damage: seq %d, err %v", i, seq, err)
					}
				}
				if _, _, err := fr.Next(); !errors.Is(err, dmg.want) {
					t.Fatalf("FrameReader at the damage: %v, want %v", err, dmg.want)
				}

				// StreamCursor on the open log.
				cur := l.StreamFrom(0)
				defer cur.Close()
				var streamErr error
				for {
					buf, err := cur.Read(nil, 1<<20)
					if err != nil {
						streamErr = err
						break
					}
					if len(buf) == 0 {
						break
					}
				}
				if cur.Seq() != victimSeq-1 {
					t.Fatalf("StreamCursor stopped at seq %d, want %d (the frame before the damage)", cur.Seq(), victimSeq-1)
				}
				if pos.sealed && (streamErr == nil || !strings.Contains(streamErr.Error(), "corrupt frame mid-log")) {
					t.Fatalf("StreamCursor over a damaged sealed segment: err = %v, want corrupt mid-log", streamErr)
				}
				if !pos.sealed && streamErr != nil {
					t.Fatalf("StreamCursor at a damaged live tail: err = %v, want quiet", streamErr)
				}

				// Replay on the open log.
				replayed := uint64(0)
				err = l.Replay(0, func(seq uint64, _ []byte) error { replayed = seq; return nil })
				if !isTear(err) || replayed != victimSeq-1 {
					t.Fatalf("Replay over the damage: err = %v after seq %d, want a tear after seq %d", err, replayed, victimSeq-1)
				}
				l.Close()

				// Open on the damaged directory.
				l2, err := Open(dir, opts)
				if pos.sealed {
					if err == nil {
						l2.Close()
						t.Fatal("Open accepted damage followed by valid records")
					}
					if !strings.Contains(err.Error(), "corrupt mid-log") {
						t.Fatalf("Open error does not name mid-log corruption: %v", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("Open over a damaged last segment: %v", err)
				}
				defer l2.Close()
				if l2.LastSeq() != victimSeq-1 {
					t.Fatalf("LastSeq = %d after truncation, want %d", l2.LastSeq(), victimSeq-1)
				}
				got := collect(t, l2, 0)
				if len(got) != int(victimSeq-1) || got[victimSeq-1] != fmt.Sprintf("rec-%02d", victimSeq-1) {
					t.Fatalf("prefix not intact after truncation: %d records", len(got))
				}
				if err := l2.Append(victimSeq, []byte("rewritten")); err != nil {
					t.Fatalf("append past the tear: %v", err)
				}
				if err := l2.Commit(); err != nil {
					t.Fatal(err)
				}
				if got := collect(t, l2, victimSeq-1); got[victimSeq] != "rewritten" {
					t.Fatalf("record appended past the tear reads back %q", got[victimSeq])
				}
			})
		}
	}
}

// FuzzFrameReader feeds arbitrary bytes to every frame decoder: none
// may panic, every frame FrameReader returns must re-encode to exactly
// the bytes it consumed, the only ways to stop are a clean end, a torn
// frame or a bad frame, and the open-time segment walk and the
// byte-slice validators must stop at the same offset.
func FuzzFrameReader(f *testing.F) {
	valid := AppendFrame(AppendFrame(AppendFrame(nil, 1, []byte("alpha")), 2, nil), 9, bytes.Repeat([]byte{0xAB}, 300))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-7])           // torn payload
	f.Add(valid[:headerSize+5+3])         // torn header
	f.Add(append(valid[:40:40], 0xFF))    // flipped tail
	f.Add([]byte{0, 0, 0, 0xFF, 1, 2, 3}) // short, absurd length
	bad := append([]byte(nil), valid...)
	bad[headerSize+2] ^= 1
	f.Add(bad)
	seg := filepath.Join(f.TempDir(), "fuzz.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var re []byte
		frames := 0
		var end error
		for {
			seq, payload, err := fr.Next()
			if err != nil {
				end = err
				break
			}
			re = AppendFrame(re, seq, payload)
			frames++
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("frames re-encode to %d bytes that differ from the input prefix", len(re))
		}
		switch {
		case end == io.EOF:
			if len(re) != len(data) {
				t.Fatalf("clean end after %d of %d bytes", len(re), len(data))
			}
		case !isTear(end):
			t.Fatalf("FrameReader stopped with %v", end)
		}

		if err := os.WriteFile(seg, data, 0o666); err != nil {
			t.Fatal(err)
		}
		walked := 0
		off, err := walkSegment(seg, func(uint64, []byte) error { walked++; return nil })
		if int(off) != len(re) || walked != frames || (err == nil) != (end == io.EOF) {
			t.Fatalf("segment walk: %d frames to offset %d (err %v); FrameReader: %d frames to %d (%v)", walked, off, err, frames, len(re), end)
		}

		pos := 0
		for len(data)-pos >= headerSize {
			ln, err := frameLen(data[pos : pos+headerSize])
			if err != nil || len(data)-pos < headerSize+ln {
				break
			}
			if _, err := checkFrame(data[pos:pos+headerSize], data[pos+headerSize:pos+headerSize+ln]); err != nil {
				break
			}
			pos += headerSize + ln
		}
		if pos != len(re) {
			t.Fatalf("byte validators accept %d bytes, FrameReader %d", pos, len(re))
		}
	})
}
