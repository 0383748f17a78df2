package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"sampleunion/internal/relation"
)

func testOpts(policy SyncPolicy) Options {
	return Options{Policy: policy, Interval: time.Millisecond, SegmentBytes: 1 << 20}
}

func collect(t *testing.T, l *Log, after uint64) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	if err := l.Replay(after, func(seq uint64, p []byte) error {
		out[seq] = string(p)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestLogRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, testOpts(policy))
			if err != nil {
				t.Fatal(err)
			}
			for seq := uint64(1); seq <= 100; seq++ {
				if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			got := collect(t, l, 40)
			if len(got) != 60 {
				t.Fatalf("replay after 40: %d records, want 60", len(got))
			}
			if got[41] != "rec-41" || got[100] != "rec-100" {
				t.Fatalf("replay content wrong: %q %q", got[41], got[100])
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: everything committed must still be there.
			l2, err := Open(dir, testOpts(policy))
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if l2.LastSeq() != 100 {
				t.Fatalf("reopened LastSeq = %d, want 100", l2.LastSeq())
			}
			if got := collect(t, l2, 0); len(got) != 100 {
				t.Fatalf("reopened replay: %d records, want 100", len(got))
			}
		})
	}
}

func TestLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Policy: SyncNever, SegmentBytes: 256} // tiny: force rotation
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for seq := uint64(1); seq <= 50; seq++ {
		if err := l.Append(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(l.segs))
	}
	before := len(l.segs)
	if err := l.TruncateThrough(25); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) >= before {
		t.Fatalf("truncate removed nothing (%d -> %d)", before, len(l.segs))
	}
	// Records past 25 all survive truncation.
	got := collect(t, l, 25)
	for seq := uint64(26); seq <= 50; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("record %d lost by TruncateThrough(25)", seq)
		}
	}
	l.Close()

	// Reopen still replays the retained suffix.
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 25); len(got) != 25 {
		t.Fatalf("reopened replay: %d records, want 25", len(got))
	}
}

func TestLogNonMonotoneSeqRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(2, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("b")); err == nil {
		t.Fatal("duplicate seq accepted")
	}
}

func TestLogClosedSticky(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("b")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Commit(); err != ErrClosed {
		t.Fatalf("commit after close: %v, want ErrClosed", err)
	}
}

func TestMutationCodecRoundTrip(t *testing.T) {
	muts := []relation.Mutation{
		{Kind: relation.MutAppend, Row: 0, Vals: relation.Tuple{1, 2, 3}},
		{Kind: relation.MutAppend, Row: 41, Vals: relation.Tuple{-5, relation.Null}},
		{Kind: relation.MutDelete, Row: 7, Vals: relation.Tuple{9, 9}},
	}
	for i, m := range muts {
		enc := AppendMutation(nil, m)
		got, err := DecodeMutation(enc)
		if err != nil {
			t.Fatalf("mut %d: %v", i, err)
		}
		if got.Kind != m.Kind || got.Row != m.Row {
			t.Fatalf("mut %d: %+v != %+v", i, got, m)
		}
		if m.Kind == relation.MutAppend && !got.Vals.Equal(m.Vals) {
			t.Fatalf("mut %d: vals %v != %v", i, got.Vals, m.Vals)
		}
		if m.Kind == relation.MutDelete && got.Vals != nil {
			t.Fatalf("mut %d: delete decoded with vals %v", i, got.Vals)
		}
	}
	if _, err := DecodeMutation([]byte{0, 1, 2}); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := DecodeMutation(AppendMutation(nil, relation.Mutation{Kind: 9})); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	sch := relation.NewSchema("a", "b")
	rel := relation.MustFromTuples("t", sch, []relation.Tuple{{1, 2}, {3, 4}, {5, 6}})
	rel.Delete(1)
	sd := rel.CaptureSnapshot()
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := WriteCheckpoint(path, sd); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != sd.Version || got.Rows != 3 || got.Live != 2 {
		t.Fatalf("shape: %+v", got)
	}
	fresh := relation.New("t", sch)
	if err := fresh.RestoreSnapshot(got); err != nil {
		t.Fatal(err)
	}
	if fresh.LiveLen() != 2 || fresh.Live(1) {
		t.Fatalf("restored live set wrong")
	}
	if fresh.Version() != rel.Version() {
		t.Fatalf("restored version %d, want %d", fresh.Version(), rel.Version())
	}
	want := rel.Tuples()
	gotT := fresh.Tuples()
	if len(want) != len(gotT) {
		t.Fatalf("tuples: %v vs %v", gotT, want)
	}
	for i := range want {
		if !want[i].Equal(gotT[i]) {
			t.Fatalf("tuple %d: %v != %v", i, gotT[i], want[i])
		}
	}

	// Wrong arity and flipped bytes are both rejected.
	if _, err := ReadCheckpoint(path, 3); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path, 2); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// buildRel replays a deterministic mutation script so every test run
// and every "what should the state be" rebuild agree exactly.
func buildRel(script []relation.Mutation) *relation.Relation {
	rel := relation.New("t", relation.NewSchema("a", "b"))
	rel.AppendRows([]relation.Tuple{{0, 0}, {1, 10}, {2, 20}}) // base
	for _, m := range script {
		if m.Kind == relation.MutAppend {
			rel.Append(m.Vals)
		} else {
			rel.Delete(m.Row)
		}
	}
	return rel
}

func relEqual(a, b *relation.Relation) bool {
	at, bt := a.Tuples(), b.Tuples()
	if len(at) != len(bt) || a.Len() != b.Len() || a.Version() != b.Version() {
		return false
	}
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return false
		}
	}
	return true
}

// TestRelationLogRecovery drives a RelationLog through attached
// mutations with interleaved checkpoints, then recovers into a fresh
// base relation and expects byte-identical contents — including after
// tearing the WAL tail, where recovery must land on a consistent
// mutation-script prefix.
func TestRelationLogRecovery(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		var script []relation.Mutation
		rel := buildRel(nil)
		rl, err := OpenRelationLog(dir, rel, RelationLogOptions{
			Options:         Options{Policy: SyncNever, SegmentBytes: 512},
			CheckpointEvery: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		rl.Attach()
		nops := 5 + rnd.Intn(60)
		next := relation.Value(100)
		for i := 0; i < nops; i++ {
			if rnd.Intn(4) == 0 && rel.LiveLen() > 0 {
				// Delete a live row.
				for {
					row := rnd.Intn(rel.Len())
					if rel.Live(row) {
						rel.Delete(row)
						script = append(script, relation.Mutation{Kind: relation.MutDelete, Row: row})
						break
					}
				}
			} else {
				vals := relation.Tuple{next, next * 2}
				next++
				rel.Append(vals)
				script = append(script, relation.Mutation{Kind: relation.MutAppend, Vals: vals})
			}
			if err := rl.Commit(); err != nil {
				t.Fatal(err)
			}
			if rnd.Intn(10) == 0 {
				if err := rl.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rl.Close(); err != nil {
			t.Fatal(err)
		}

		// Maybe tear the WAL tail (simulating a crash mid-write).
		torn := rnd.Intn(2) == 1
		if torn {
			segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
			if len(segs) > 0 {
				last := segs[len(segs)-1]
				st, _ := os.Stat(last)
				if st.Size() > 0 {
					cut := 1 + rnd.Int63n(st.Size())
					if err := os.Truncate(last, st.Size()-cut); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		// Recover into a fresh base.
		rec := buildRel(nil)
		rl2, err := OpenRelationLog(dir, rec, RelationLogOptions{Options: Options{Policy: SyncNever}})
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		// Recovery must land exactly k ops into the script for some k
		// (k = all of them when the log was not torn), and the
		// recovered state must equal a clean replay of that prefix.
		base := buildRel(nil).Version()
		k := int(rec.Version() - base)
		if k < 0 || k > len(script) {
			t.Fatalf("round %d: recovered %d ops, script has %d", round, k, len(script))
		}
		if !torn && k != len(script) {
			t.Fatalf("round %d: untorn recovery lost ops: %d < %d", round, k, len(script))
		}
		if want := buildRel(script[:k]); !relEqual(rec, want) {
			t.Fatalf("round %d: recovered state diverges at prefix %d", round, k)
		}
		rl2.Close()
	}
}

// TestRelationLogCheckpointFallback corrupts the newest checkpoint and
// expects recovery to fall back to the older one plus WAL replay.
func TestRelationLogCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	rel := buildRel(nil)
	rl, err := OpenRelationLog(dir, rel, RelationLogOptions{Options: Options{Policy: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	rl.Attach()
	var script []relation.Mutation
	for i := 0; i < 10; i++ {
		vals := relation.Tuple{relation.Value(100 + i), relation.Value(200 + i)}
		rel.Append(vals)
		script = append(script, relation.Mutation{Kind: relation.MutAppend, Vals: vals})
		if err := rl.Commit(); err != nil {
			t.Fatal(err)
		}
		if i == 4 || i == 7 {
			if err := rl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rl.Close()

	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint", "*.ckpt"))
	if len(cks) != 2 {
		t.Fatalf("expected 2 retained checkpoints, got %d", len(cks))
	}
	// Corrupt the newest (lexically last: names are zero-padded hex).
	raw, _ := os.ReadFile(cks[1])
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(cks[1], raw, 0o666); err != nil {
		t.Fatal(err)
	}

	rec := buildRel(nil)
	rl2, err := OpenRelationLog(dir, rec, RelationLogOptions{Options: Options{Policy: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer rl2.Close()
	if want := buildRel(script); !relEqual(rec, want) {
		t.Fatal("fallback recovery diverged")
	}
}

func TestMaybeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	rel := buildRel(nil)
	rl, err := OpenRelationLog(dir, rel, RelationLogOptions{
		Options:         Options{Policy: SyncNever},
		CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	rl.Attach()
	for i := 0; i < 4; i++ {
		rel.Append(relation.Tuple{relation.Value(i), 0})
	}
	if did, err := rl.MaybeCheckpoint(); err != nil || did {
		t.Fatalf("checkpoint too early: did=%v err=%v", did, err)
	}
	rel.Append(relation.Tuple{99, 99})
	if did, err := rl.MaybeCheckpoint(); err != nil || !did {
		t.Fatalf("checkpoint not taken at threshold: did=%v err=%v", did, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "off": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestBatchRecordRoundTrip(t *testing.T) {
	cols := [][]relation.Value{
		{0, 1, 2, 3, 4, 5},
		{10, 11, 12, 13, 14, 15},
	}
	enc := make([]byte, batchRecordLen("", 3, 2))
	encodeBatchRecord(enc, "", 2, 3, cols)
	tag, start, rows, err := decodeBatchRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if tag != "" || start != 2 || len(rows) != 3 {
		t.Fatalf("decoded start %d, %d rows; want 2, 3", start, len(rows))
	}
	for i, want := range []relation.Tuple{{2, 12}, {3, 13}, {4, 14}} {
		if !rows[i].Equal(want) {
			t.Fatalf("row %d = %v, want %v", i, rows[i], want)
		}
	}
	if _, _, _, err := decodeBatchRecord(enc[:10]); err == nil {
		t.Fatal("short batch record accepted")
	}
	if _, _, _, err := decodeBatchRecord(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("oversized batch record accepted")
	}
	// The tagged kind round-trips its key, and a key cut short is refused.
	tagged := make([]byte, batchRecordLen("k1", 3, 2))
	encodeBatchRecord(tagged, "k1", 2, 3, cols)
	if tag, start, rows, err := decodeBatchRecord(tagged); err != nil || tag != "k1" || start != 2 || len(rows) != 3 {
		t.Fatalf("tagged round trip: tag %q start %d rows %d err %v", tag, start, len(rows), err)
	}
	if _, _, _, err := decodeBatchRecord(tagged[:3]); err == nil {
		t.Fatal("tagged record with a truncated key accepted")
	}
}

// TestRelationLogBatchRecovery mixes bulk AppendRows batches (one WAL
// record each) with single appends and deletes, and expects recovery —
// clean and with a torn tail landing mid-batch-record — to restore an
// exact prefix at batch granularity: a batch record is either wholly
// replayed or wholly discarded.
func TestRelationLogBatchRecovery(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for round := 0; round < 12; round++ {
		dir := t.TempDir()
		rel := buildRel(nil)
		rl, err := OpenRelationLog(dir, rel, RelationLogOptions{
			Options: Options{Policy: SyncNever, SegmentBytes: 2048},
		})
		if err != nil {
			t.Fatal(err)
		}
		rl.Attach()
		// versions[k] = relation version after op k, so a recovered
		// version must be one of them (batch atomicity).
		versions := []uint64{rel.Version()}
		next := relation.Value(1000)
		for i := 0; i < 12; i++ {
			switch rnd.Intn(3) {
			case 0: // bulk batch: one WAL record covering many versions
				n := 2 + rnd.Intn(40)
				rows := make([]relation.Tuple, n)
				for j := range rows {
					rows[j] = relation.Tuple{next, next + 1}
					next += 2
				}
				rel.AppendRows(rows)
			case 1:
				rel.Append(relation.Tuple{next, next + 1})
				next += 2
			default:
				rel.Delete(rnd.Intn(rel.Len()))
			}
			if err := rl.Commit(); err != nil {
				t.Fatalf("round %d op %d: %v", round, i, err)
			}
			versions = append(versions, rel.Version())
			if rnd.Intn(5) == 0 {
				if err := rl.Checkpoint(); err != nil {
					t.Fatalf("round %d op %d: checkpoint: %v", round, i, err)
				}
			}
		}
		want := rel
		rl.Close()

		if round%2 == 1 { // tear the WAL tail at a random byte offset
			segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(segs)
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() > 0 {
				if err := os.Truncate(last, int64(rnd.Intn(int(fi.Size())))); err != nil {
					t.Fatal(err)
				}
			}
		}

		rel2 := buildRel(nil)
		rl2, err := OpenRelationLog(dir, rel2, RelationLogOptions{
			Options: Options{Policy: SyncNever, SegmentBytes: 2048},
		})
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		rl2.Close()
		k := -1
		for i, v := range versions {
			if rel2.Version() == v {
				k = i
				break
			}
		}
		if k < 0 {
			t.Fatalf("round %d: recovered version %d is not an op boundary %v (batch split?)", round, rel2.Version(), versions)
		}
		if round%2 == 0 {
			if rel2.Version() != want.Version() {
				t.Fatalf("round %d: untorn recovery at version %d, want %d", round, rel2.Version(), want.Version())
			}
			if !relEqual(rel2, want) {
				t.Fatalf("round %d: untorn recovery diverged", round)
			}
		} else if rel2.Version() == want.Version() && !relEqual(rel2, want) {
			t.Fatalf("round %d: full torn recovery diverged", round)
		}
	}
}

func TestWriteBufEdges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := newWriteBuf(f)

	// A write larger than the whole buffer goes straight through.
	big := bytes.Repeat([]byte{0xAB}, writeBufBytes+11)
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	// A write spanning the buffer boundary flushes mid-copy.
	half := bytes.Repeat([]byte{0xCD}, writeBufBytes/2+7)
	for i := 0; i < 3; i++ {
		if _, err := w.Write(half); err != nil {
			t.Fatal(err)
		}
	}
	// A reservation that doesn't fit the tail flushes first; one that
	// exceeds the buffer is refused (nil) without consuming anything.
	if p, err := w.Reserve(writeBufBytes + 1); err != nil || p != nil {
		t.Fatalf("oversized Reserve = (%v, %v), want (nil, nil)", p, err)
	}
	p, err := w.Reserve(writeBufBytes)
	if err != nil || len(p) != writeBufBytes {
		t.Fatalf("full-buffer Reserve after partial fill: len %d err %v", len(p), err)
	}
	for i := range p {
		p[i] = 0xEF
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := len(big) + 3*len(half) + writeBufBytes
	if len(got) != want {
		t.Fatalf("file has %d bytes, want %d", len(got), want)
	}
	for i, b := range got[:len(big)] {
		if b != 0xAB {
			t.Fatalf("write-through byte %d = %x", i, b)
		}
	}
	for i, b := range got[len(got)-writeBufBytes:] {
		if b != 0xEF {
			t.Fatalf("reserved byte %d = %x", i, b)
		}
	}
}

func TestAppendReserveFallback(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// In-place record, then one bigger than the write buffer (takes the
	// scratch fallback).
	if err := l.AppendReserve(1, 4, func(dst []byte) { copy(dst, "tiny") }); err != nil {
		t.Fatal(err)
	}
	big := writeBufBytes + 99
	if err := l.AppendReserve(2, big, func(dst []byte) {
		for i := range dst {
			dst[i] = byte(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := map[uint64]int{}
	if err := l2.Replay(0, func(seq uint64, p []byte) error {
		got[seq] = len(p)
		if seq == 1 && string(p) != "tiny" {
			return fmt.Errorf("seq 1 payload %q", p)
		}
		if seq == 2 {
			for i, b := range p {
				if b != byte(i) {
					return fmt.Errorf("seq 2 byte %d = %x", i, b)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got[1] != 4 || got[2] != big {
		t.Fatalf("replayed sizes %v, want {1:4, 2:%d}", got, big)
	}
}

func TestIntervalFlusherWritesWithoutCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0x42}, 100)
	if err := l.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil { // no syscall under SyncInterval
		t.Fatal(err)
	}
	// The background flusher must put the record on disk without any
	// further call: poll the segment file's size.
	seg := filepath.Join(dir, segName(1))
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := os.Stat(seg)
		if err == nil && st.Size() >= int64(headerSize+len(payload)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher never wrote the record (segment at %v)", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRelationLogSinkErrorSurfacedByCommit(t *testing.T) {
	dir := t.TempDir()
	rel := relation.New("t", relation.NewSchema("a", "b"))
	rl, err := OpenRelationLog(dir, rel, RelationLogOptions{Options: Options{Policy: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Recovered() != 0 {
		t.Fatalf("fresh log recovered %d", rl.Recovered())
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	// Tees racing the close park the failure for the next Commit: both
	// the single-mutation and the batch sink paths.
	rl.LogMutation(1, relation.Mutation{Kind: relation.MutAppend, Row: 0, Vals: relation.Tuple{1, 2}})
	if err := rl.Commit(); err == nil {
		t.Fatal("Commit after a failed LogMutation tee succeeded")
	}
	rl2, err := OpenRelationLog(t.TempDir(), rel, RelationLogOptions{Options: Options{Policy: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rl2.Close(); err != nil {
		t.Fatal(err)
	}
	rel.AppendRows([]relation.Tuple{{1, 2}, {3, 4}})
	rl2.LogAppendBatch(rel.Version(), 0, 2, [][]relation.Value{{1, 3}, {2, 4}}, "")
	if err := rl2.Commit(); err == nil {
		t.Fatal("Commit after a failed LogAppendBatch tee succeeded")
	}
}
