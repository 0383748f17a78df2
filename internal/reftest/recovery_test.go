package reftest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/wal"
)

// This file is the durability layer's differential-testing harness:
// randomized scenarios run a logged mutation burst, the process "crash"
// is simulated by abandoning the logs and tearing the WAL tail (and
// sometimes the newest checkpoint) at an arbitrary byte offset, and
// recovery into a fresh same-seed build must land on an exact prefix of
// the recorded mutation script — with contents, and seeded draws,
// identical to a clean replay of that prefix.

// walOp is one recorded mutation: a concrete append row or a concrete
// physical delete index, so a golden replay of any prefix is exact.
type walOp struct {
	del bool
	row relation.Tuple
	idx int
}

func applyWalOp(r *relation.Relation, o walOp) {
	if o.del {
		r.Delete(o.idx)
	} else {
		r.Append(o.row)
	}
}

// relStateEqual compares full physical state — length, version, the
// liveness bitmap, and every stored value (dead rows keep their values
// under both checkpoint restore and WAL replay), because the samplers'
// determinism depends on physical layout, not just live contents.
func relStateEqual(a, b *relation.Relation) error {
	if a.Len() != b.Len() || a.Version() != b.Version() {
		return fmt.Errorf("len/version %d/%d vs %d/%d", a.Len(), a.Version(), b.Len(), b.Version())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Live(i) != b.Live(i) {
			return fmt.Errorf("row %d liveness %v vs %v", i, a.Live(i), b.Live(i))
		}
		if !a.Row(i).Equal(b.Row(i)) {
			return fmt.Errorf("row %d %v vs %v", i, a.Row(i), b.Row(i))
		}
	}
	return nil
}

// TestCrashRecoveryMatchesGolden is the crash-recovery property test:
// for randomized scenarios and randomized teardown points, recovery
// (checkpoint restore + WAL replay over the deterministic base build)
// must reconstruct exactly some prefix of the committed mutation
// script — all of it when nothing was torn — and a session prepared
// over the recovered relations must produce draws byte-identical to
// one prepared over a clean replay of the same prefix, uniform over
// the recovered union by chi-square.
func TestCrashRecoveryMatchesGolden(t *testing.T) {
	opts := wal.RelationLogOptions{
		Options:         wal.Options{Policy: wal.SyncNever, SegmentBytes: 512},
		CheckpointEvery: 6,
	}
	executed, torn, drawn := 0, 0, 0
	for seed := int64(0); seed < 14; seed++ {
		root := t.TempDir()

		// Live run: deterministic base, then a logged mutation burst with
		// a commit per op and occasional checkpoints. SegmentBytes 512
		// forces rotation, so checkpoints also exercise WAL truncation.
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		logs := make([]*wal.RelationLog, len(sc.rels))
		for i, r := range sc.rels {
			rl, err := wal.OpenRelationLog(filepath.Join(root, r.Name()), r, opts)
			if err != nil {
				t.Fatalf("seed %d: open log for %s: %v", seed, r.Name(), err)
			}
			if rl.Recovered() != 0 {
				t.Fatalf("seed %d: fresh directory recovered %d mutations", seed, rl.Recovered())
			}
			rl.Attach()
			logs[i] = rl
		}
		rnd := rand.New(rand.NewSource(seed + 7000))
		scripts := make([][]walOp, len(sc.rels))
		for i, r := range sc.rels {
			nops := 20 + rnd.Intn(20)
			for len(scripts[i]) < nops {
				var o walOp
				if r.LiveLen() > 1 && rnd.Intn(4) == 0 {
					for {
						idx := rnd.Intn(r.Len())
						if r.Live(idx) {
							o = walOp{del: true, idx: idx}
							break
						}
					}
				} else {
					row := make(relation.Tuple, r.Arity())
					if rnd.Intn(2) == 0 {
						for j := range row {
							row[j] = relation.Value(rnd.Intn(4))
						}
						if hasLiveRow(r, row) {
							continue // keep instances duplicate-free for the reference
						}
					} else {
						// Out-of-domain filler: crosses checkpoint and segment
						// boundaries without exploding the union.
						for j := range row {
							row[j] = relation.Value(1000 + len(scripts[i])*7 + j)
						}
					}
					o = walOp{row: row}
				}
				applyWalOp(r, o)
				if err := logs[i].Commit(); err != nil {
					t.Fatalf("seed %d: commit on %s: %v", seed, r.Name(), err)
				}
				scripts[i] = append(scripts[i], o)
				if rnd.Intn(7) == 0 {
					if err := logs[i].Checkpoint(); err != nil {
						t.Fatalf("seed %d: checkpoint on %s: %v", seed, r.Name(), err)
					}
				}
			}
			logs[i].Close()
		}

		// Crash: tear one relation's WAL tail at an arbitrary byte offset
		// (often mid-record), and sometimes also chop the newest
		// checkpoint so recovery must fall back to the previous one (or
		// the base build) plus the retained WAL.
		tearRel := rnd.Intn(len(sc.rels))
		mode := rnd.Intn(3)
		if mode > 0 {
			walDir := filepath.Join(root, sc.rels[tearRel].Name(), "wal")
			segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(segs)
			if len(segs) > 0 {
				last := segs[len(segs)-1]
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() > 0 {
					if err := os.Truncate(last, int64(rnd.Intn(int(fi.Size())))); err != nil {
						t.Fatal(err)
					}
					torn++
				}
			}
		}
		if mode == 2 {
			ckptDir := filepath.Join(root, sc.rels[tearRel].Name(), "checkpoint")
			cks, err := filepath.Glob(filepath.Join(ckptDir, "*"+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(cks)
			if len(cks) > 0 {
				last := cks[len(cks)-1]
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(last, fi.Size()/2); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Recovery: a fresh same-seed build plus OpenRelationLog must land
		// each relation on an exact prefix of its script.
		sc2 := buildScenario(t, seed)
		sc2.ensureNonEmpty()
		ks := make([]int, len(sc2.rels))
		for i, r := range sc2.rels {
			rl, err := wal.OpenRelationLog(filepath.Join(root, r.Name()), r, opts)
			if err != nil {
				t.Fatalf("seed %d: recover %s: %v", seed, r.Name(), err)
			}
			k := rl.Recovered()
			rl.Close()
			if k > len(scripts[i]) {
				t.Fatalf("seed %d: %s recovered %d mutations, script has %d", seed, r.Name(), k, len(scripts[i]))
			}
			if (i != tearRel || mode == 0) && k != len(scripts[i]) {
				t.Fatalf("seed %d: untorn %s recovered %d of %d committed mutations", seed, r.Name(), k, len(scripts[i]))
			}
			ks[i] = k
		}

		// Golden: clean replay of each surviving prefix over another
		// same-seed build; physical state must match exactly.
		sc3 := buildScenario(t, seed)
		sc3.ensureNonEmpty()
		for i, r := range sc3.rels {
			for _, o := range scripts[i][:ks[i]] {
				applyWalOp(r, o)
			}
			if err := relStateEqual(sc2.rels[i], r); err != nil {
				t.Fatalf("seed %d: recovered %s diverges from golden replay of %d ops: %v",
					seed, r.Name(), ks[i], err)
			}
		}
		executed++

		// Draw equivalence: sessions prepared over the recovered and the
		// golden relations must agree draw for draw, and match the
		// reference distribution.
		union, _ := sc3.reference()
		if len(union) == 0 || len(union) > 300 {
			continue
		}
		prep := func(u *su.Union) *su.Session {
			sess, err := u.Prepare(su.Options{Seed: seed + 5, Warmup: su.WarmupExact})
			if err != nil {
				t.Fatalf("seed %d: prepare: %v", seed, err)
			}
			return sess
		}
		n := drawCount(len(union))
		want, _, err := prep(sc3.union).SampleSeeded(n, seed*37+1)
		if err != nil {
			t.Fatalf("seed %d: golden draw: %v", seed, err)
		}
		got, _, err := prep(sc2.union).SampleSeeded(n, seed*37+1)
		if err != nil {
			t.Fatalf("seed %d: recovered draw: %v", seed, err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("seed %d: draw %d diverged after recovery: %v vs %v", seed, i, got[i], want[i])
			}
		}
		checkDraws(t, fmt.Sprintf("seed %d (%s) recovered", seed, sc2.name), got, UniformWeights(union), true)
		drawn++
	}
	if executed < 10 || torn < 3 || drawn < 5 {
		t.Fatalf("coverage drifted: %d scenarios, %d torn tails, %d draw checks", executed, torn, drawn)
	}
}
