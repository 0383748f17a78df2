package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sampleunion/internal/relation"
)

// buildSegmentedLog writes n records into dir with tiny segments and
// closes the log, returning the sorted segment paths.
func buildSegmentedLog(t *testing.T, dir string, n int) []string {
	t.Helper()
	l, err := Open(dir, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d (err %v)", len(segs), err)
	}
	return segs
}

// TestRecoveryCorruptMiddleSegmentFailsLoudly is the "damage in the
// middle must not be silently truncated" property: flip any byte of
// any non-final segment and Open must refuse the log, because treating
// the damage as a torn tail would discard every later record that was
// acked durable.
func TestRecoveryCorruptMiddleSegmentFailsLoudly(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		segs := buildSegmentedLog(t, dir, 120)
		victim := segs[rnd.Intn(len(segs)-1)] // any sealed segment
		raw, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		bit := byte(1 << rnd.Intn(8))
		raw[rnd.Intn(len(raw))] ^= bit
		if err := os.WriteFile(victim, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, testOpts(SyncNever))
		if err == nil {
			l.Close()
			t.Fatalf("round %d: Open accepted a log with corrupt segment %s", round, filepath.Base(victim))
		}
		if !strings.Contains(err.Error(), "corrupt mid-log") {
			t.Fatalf("round %d: error does not name mid-log corruption: %v", round, err)
		}
	}
}

// TestRecoveryDuplicatedSegmentFileFailsLoudly copies an existing
// segment under a different (valid-looking) name: duplicated history
// on disk must fail Open, not replay twice.
func TestRecoveryDuplicatedSegmentFileFailsLoudly(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		segs := buildSegmentedLog(t, dir, 120)
		src := segs[rnd.Intn(len(segs))]
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		// A duplicate can only carry a name its first record does not
		// match (the matching name is taken), so pick one past the end.
		dup := filepath.Join(dir, fmt.Sprintf("%016x.wal", 121+uint64(rnd.Intn(1000))))
		if err := os.WriteFile(dup, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, testOpts(SyncNever))
		if err == nil {
			l.Close()
			t.Fatalf("round %d: Open accepted a duplicated segment file", round)
		}
		if !strings.Contains(err.Error(), "does not match the segment name") &&
			!strings.Contains(err.Error(), "duplicated history") {
			t.Fatalf("round %d: error does not name the duplication: %v", round, err)
		}
	}
}

// TestRecoveryMissingMiddleSegmentFailsLoudly deletes an interior
// segment: the Log itself opens (each remaining segment is intact) but
// RelationLog recovery must detect the version gap and refuse, because
// applying the tail over the hole would corrupt the relation.
func TestRecoveryMissingMiddleSegmentFailsLoudly(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		rel := buildRel(nil)
		rl, err := OpenRelationLog(dir, rel, RelationLogOptions{
			Options: Options{Policy: SyncNever, SegmentBytes: 128},
		})
		if err != nil {
			t.Fatal(err)
		}
		rl.Attach()
		next := relation.Value(100)
		for i := 0; i < 60; i++ {
			rel.Append(relation.Tuple{next, next * 2})
			next++
		}
		if err := rl.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
		if err != nil || len(segs) < 3 {
			t.Fatalf("round %d: want >= 3 segments, got %d", round, len(segs))
		}
		victim := segs[1+rnd.Intn(len(segs)-2)] // interior only
		if err := os.Remove(victim); err != nil {
			t.Fatal(err)
		}
		_, err = OpenRelationLog(dir, buildRel(nil), RelationLogOptions{Options: Options{Policy: SyncNever}})
		if err == nil {
			t.Fatalf("round %d: recovery accepted a log with a missing interior segment", round)
		}
		if !errors.Is(err, ErrSeqGap) {
			t.Fatalf("round %d: error is not a seq gap: %v", round, err)
		}
	}
}

func TestApplyRecordBatch(t *testing.T) {
	rel := relation.New("t", relation.NewSchema("a", "b"))
	rel.AppendRows([]relation.Tuple{{1, 2}, {3, 4}}) // version 2
	// Full column vectors (the sink contract): the batch covers
	// physical rows [2, 4).
	cols := [][]relation.Value{{1, 3, 10, 30}, {2, 4, 20, 40}}

	payload := make([]byte, batchRecordLen("", 2, 2))
	encodeBatchRecord(payload, "", 2, 2, cols)

	out, err := ApplyRecord(rel, 4, payload) // version 2 + 2 rows = seq 4
	if err != nil || !out.Applied || out.Rows != 2 || out.Tag != "" {
		t.Fatalf("apply batch: %+v, %v", out, err)
	}
	if rel.Version() != 4 || rel.Len() != 4 {
		t.Fatalf("after batch: version %d len %d", rel.Version(), rel.Len())
	}
	// Re-applying the same record is a duplicate, silently skipped.
	out, err = ApplyRecord(rel, 4, payload)
	if err != nil || out.Applied {
		t.Fatalf("duplicate batch: %+v, %v", out, err)
	}
	// A record that skips versions is a gap.
	farCols := [][]relation.Value{{1, 3, 10, 30, 50, 70}, {2, 4, 20, 40, 60, 80}}
	far := make([]byte, batchRecordLen("", 2, 2))
	encodeBatchRecord(far, "", 4, 2, farCols)
	if _, err := ApplyRecord(rel, 9, far); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap batch: %v, want ErrSeqGap", err)
	}
}

func TestApplyRecordTaggedBatch(t *testing.T) {
	rel := relation.New("t", relation.NewSchema("a", "b"))
	cols := [][]relation.Value{{1}, {2}}
	payload := make([]byte, batchRecordLen("batch-7", 1, 2))
	encodeBatchRecord(payload, "batch-7", 0, 1, cols)
	out, err := ApplyRecord(rel, 1, payload)
	if err != nil || !out.Applied || out.Tag != "batch-7" || out.Rows != 1 {
		t.Fatalf("tagged apply: %+v, %v", out, err)
	}
}

// TestApplyRecordMutations: a one-row batch appends, a delete record
// tombstones, a delete that contradicts state or skips versions is
// refused, and so is the single-row append record (kind 0) no writer
// emits any more — by name, leaving the relation as it was.
func TestApplyRecordMutations(t *testing.T) {
	rel := relation.New("t", relation.NewSchema("a", "b"))
	rel.AppendRows([]relation.Tuple{{1, 2}}) // version 1

	app := make([]byte, batchRecordLen("", 1, 2))
	encodeBatchRecord(app, "", 1, 1, [][]relation.Value{{1, 5}, {2, 6}})
	out, err := ApplyRecord(rel, 2, app)
	if err != nil || !out.Applied || out.Rows != 1 || !rel.Row(1).Equal(relation.Tuple{5, 6}) {
		t.Fatalf("apply append: %+v, %v", out, err)
	}
	del := make([]byte, deleteRecordLen)
	encodeDeleteRecord(del, 0)
	if out, err = ApplyRecord(rel, 3, del); err != nil || !out.Applied || out.Rows != 1 || rel.Live(0) {
		t.Fatalf("apply delete: %+v, %v", out, err)
	}
	// Deleting the same row again (as a fresh record) contradicts state.
	if _, err := ApplyRecord(rel, 4, del); err == nil {
		t.Fatal("delete of a dead row applied")
	}
	// Gap on deletes too.
	if _, err := ApplyRecord(rel, 9, del); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap delete: %v, want ErrSeqGap", err)
	}
	// [kind=0][row u64][nvals u32][vals]: what Append once wrote.
	kind0 := []byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0}
	if _, err := ApplyRecord(rel, 4, kind0); err == nil || !strings.Contains(err.Error(), "single-row append (kind 0)") {
		t.Fatalf("kind-0 record: %v, want a refusal naming it", err)
	}
	if rel.Version() != 3 || rel.Len() != 2 {
		t.Fatalf("refused records moved the relation to version %d, %d rows", rel.Version(), rel.Len())
	}
}

// TestApplyRecordHostileBatchAllocates: a 17-byte batch record that
// claims 2^20 rows of arity 0 is refused for its arity before the
// decoder allocates anything the size of its claim (it asked for 25 MB).
func TestApplyRecordHostileBatchAllocates(t *testing.T) {
	rel := relation.New("t", relation.NewSchema("a", "b"))
	hostile := []byte{batchKind, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0, 0, 0}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ApplyRecord(rel, 1<<20, hostile); err == nil || !strings.Contains(err.Error(), "arity 0, want 2") {
			t.Fatalf("hostile batch: %v, want an arity refusal", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perApply := (after.TotalAlloc - before.TotalAlloc) / runs; perApply >= 1024 {
		t.Fatalf("refusing a 17-byte record allocated %d B", perApply)
	}
}

// FuzzApplyRecord feeds arbitrary payloads and seqs to ApplyRecord over a
// 2-column relation at version 3: it must never panic, and must either
// refuse the record leaving the relation as it was or apply exactly
// out.Rows versions (none for a duplicate).
func FuzzApplyRecord(f *testing.F) {
	cols := [][]relation.Value{{0, 1, 2, 3, 4}, {0, 10, 20, 30, 40}}
	for _, tag := range []string{"", "k"} {
		for n := 1; n <= 2; n++ {
			p := make([]byte, batchRecordLen(tag, n, 2))
			encodeBatchRecord(p, tag, 3, n, cols)
			f.Add(uint64(3+n), p)
			f.Add(uint64(2), p)
		}
	}
	del := make([]byte, deleteRecordLen)
	encodeDeleteRecord(del, 1)
	f.Add(uint64(4), del)
	f.Add(uint64(4), []byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(1<<20+3), []byte{batchKind, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0, 0, 0})
	f.Add(uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte) {
		rel := relation.New("t", relation.NewSchema("a", "b"))
		rel.AppendRows([]relation.Tuple{{0, 0}, {1, 10}, {2, 20}})
		v, rows, live := rel.Version(), rel.Len(), rel.LiveLen()
		out, err := ApplyRecord(rel, seq, payload)
		moved := rel.Version() - v
		switch {
		case err != nil:
			if moved != 0 || rel.Len() != rows || rel.LiveLen() != live {
				t.Fatalf("refused record (%v) moved the relation %d versions", err, moved)
			}
		case !out.Applied:
			if moved != 0 || seq > v {
				t.Fatalf("duplicate at seq %d over version %d moved the relation %d versions", seq, v, moved)
			}
		case moved != uint64(out.Rows) || seq != rel.Version():
			t.Fatalf("applied %d rows at seq %d, relation moved %d versions to %d", out.Rows, seq, moved, rel.Version())
		}
	})
}
