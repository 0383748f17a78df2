package reftest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	su "sampleunion"
	"sampleunion/internal/relation"
)

// TestShardedMatchesReference is the sharded engine's distribution
// property test: over randomized scenarios, a session prepared with
// Options.Shards >= 2 must produce draws that are membership-exact and
// chi-square-uniform against the brute-force reference, and a
// two-sample chi-square against an unsharded session
// of the same union must not distinguish them. Both checks run
// statically and again after a random mutation burst plus Refresh
// (which drives the per-shard delta path, and the full re-partition
// path for cyclic scenarios).
func TestShardedMatchesReference(t *testing.T) {
	executed := 0
	for seed := int64(0); seed < 30; seed++ {
		sc := buildScenario(t, seed)
		sc.ensureNonEmpty()
		union, _ := sc.reference()
		if len(union) == 0 || len(union) > 300 {
			continue
		}
		shards := 2 + int(seed%3)
		sharded, err := sc.union.Prepare(su.Options{
			Seed: seed + 1, Warmup: su.WarmupExact,
			Shards: shards,
		})
		if err != nil {
			t.Fatalf("seed %d (%s): prepare sharded: %v", seed, sc.name, err)
		}
		flat, err := sc.union.Prepare(su.Options{
			Seed: seed + 1, Warmup: su.WarmupExact,
		})
		if err != nil {
			t.Fatalf("seed %d (%s): prepare flat: %v", seed, sc.name, err)
		}
		rnd := rand.New(rand.NewSource(seed + 9000))
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				mutationBurst(rnd, sc.rels)
				sc.ensureNonEmpty()
				if err := sharded.Refresh(); err != nil {
					t.Fatalf("seed %d (%s): sharded refresh: %v", seed, sc.name, err)
				}
				if err := flat.Refresh(); err != nil {
					t.Fatalf("seed %d (%s): flat refresh: %v", seed, sc.name, err)
				}
				union, _ = sc.reference()
				if len(union) == 0 || len(union) > 300 {
					break
				}
			}
			label := fmt.Sprintf("seed %d (%s, %d shards) phase %d", seed, sc.name, shards, phase)
			n := drawCount(len(union))
			draws, _, err := sharded.SampleSeeded(n, seed*11+1)
			if err != nil {
				t.Fatalf("%s: sharded: %v", label, err)
			}
			checkDraws(t, label, draws, UniformWeights(union), true)
			// Directly against the unsharded session.
			flatDraws, _, err := flat.SampleSeeded(n, seed*17+3)
			if err != nil {
				t.Fatalf("%s: flat: %v", label, err)
			}
			stat, df := twoSampleChi(countDraws(draws), countDraws(flatDraws))
			if crit := ChiSquareCritical(df, chiZ); stat > crit {
				t.Fatalf("%s: two-sample chi-square %0.1f > %0.1f (df %d): sharded and unsharded draws differ in distribution",
					label, stat, crit, df)
			}
			executed++
		}
	}
	if executed < 10 {
		t.Fatalf("only %d scenario phases executed; generators drifted", executed)
	}
}

// TestShardedRefreshAfterLostLogTail drives the lost-log-tail rebuild
// path end to end: a mutation burst larger than the bounded mutation
// log leaves Partition.Sync nothing to replay (MutationsSince reports
// ok=false), so Session.Refresh must fall back to a full re-partition
// — and the rebuilt session must serve exactly the mutated union.
func TestShardedRefreshAfterLostLogTail(t *testing.T) {
	sc := buildScenario(t, 0) // chain2x2: acyclic, so only a lost tail forces the full rebuild
	sc.ensureNonEmpty()
	sess, err := sc.union.Prepare(su.Options{
		Seed: 5, Warmup: su.WarmupExact, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := sc.rels[0]
	v0 := victim.Version()
	// Overflow the bounded log: far more appends than it retains. Values
	// way outside the scenario's 0..5 domain join nothing, so the union
	// stays small enough for the brute-force reference.
	filler := make([]relation.Tuple, 0, 5000)
	for i := 0; i < 5000; i++ {
		row := make(relation.Tuple, victim.Arity())
		for j := range row {
			row[j] = relation.Value(10000 + i*4 + j)
		}
		filler = append(filler, row)
	}
	victim.AppendRows(filler)
	// A few in-domain mutations so the refreshed union visibly moved.
	appendUnique(victim, relation.Tuple{0, 1})
	appendUnique(victim, relation.Tuple{1, 0})
	for i := 0; i < victim.Len(); i++ {
		if victim.Live(i) {
			victim.Delete(i)
			break
		}
	}
	sc.ensureNonEmpty()
	if _, _, ok := victim.MutationsSince(v0); ok {
		t.Fatal("mutation log tail unexpectedly retained; burst too small to force the rebuild path")
	}
	if err := sess.Refresh(); err != nil {
		t.Fatalf("refresh across lost log tail: %v", err)
	}
	union, _ := sc.reference()
	if len(union) == 0 {
		t.Fatal("mutated union empty; scenario drifted")
	}
	n := drawCount(len(union))
	draws, _, err := sess.SampleSeeded(n, 71)
	if err != nil {
		t.Fatalf("post-rebuild draw: %v", err)
	}
	checkDraws(t, "lost-tail rebuild", draws, UniformWeights(union), true)
}

// TestShardedDeterministicAcrossWorkers pins the sharded determinism
// contract: the merged stream must be bit-identical no matter how the
// per-shard sub-batches are scheduled, so two sessions prepared with
// the same seed and shard count agree draw for draw.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	sc := buildScenario(t, 0) // chain2x2
	sc.ensureNonEmpty()
	mk := func() []relation.Tuple {
		sess, err := sc.union.Prepare(su.Options{
			Seed: 7, Warmup: su.WarmupExact, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := sess.SampleSeeded(500, 99)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	d1, d2 := mk(), mk()
	for i := range d1 {
		if !d1[i].Equal(d2[i]) {
			t.Fatalf("draw %d differs across identically-prepared sessions: %v vs %v", i, d1[i], d2[i])
		}
	}
}

// TestShardedConcurrentDrawsMutationsRefresh races sharded draws
// against relation mutations and Refresh calls (run under -race):
// fragments follow the live-relation visibility contract, so draws on
// any generation must stay memory-safe while Sync replays the mutation
// log into them, and the final refreshed state must serve exactly the
// mutated union.
func TestShardedConcurrentDrawsMutationsRefresh(t *testing.T) {
	sc := buildScenario(t, 0) // chain2x2: acyclic, exercises the incremental path
	sc.ensureNonEmpty()
	sess, err := sc.union.Prepare(su.Options{
		Seed: 21, Warmup: su.WarmupExact, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // mutator: appends across relations, occasional deletes
		defer wg.Done()
		for i := 0; i < 120; i++ {
			r := sc.rels[i%len(sc.rels)]
			row := make(relation.Tuple, r.Arity())
			for j := range row {
				row[j] = relation.Value((i + j) % 6)
			}
			r.Append(row)
			if i%13 == 0 {
				sc.rels[0].Delete(i % sc.rels[0].Len())
			}
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // refresher
		defer wg.Done()
		for {
			select {
			case <-stop:
				if err := sess.Refresh(); err != nil {
					t.Errorf("refresh: %v", err)
				}
				return
			default:
				if err := sess.Refresh(); err != nil {
					t.Errorf("refresh: %v", err)
					return
				}
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // drawers: seeded and auto-seeded streams
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, _, err := sess.SampleSeeded(16, int64(w*1000+i)); err != nil {
					t.Errorf("seeded draw: %v", err)
					return
				}
				if _, _, err := sess.Sample(4); err != nil {
					t.Errorf("draw: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	union, _ := sc.reference()
	out, _, err := sess.SampleSeeded(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range out {
		if _, ok := union[relation.TupleKey(tup)]; !ok {
			t.Fatalf("post-settle draw %v not in mutated union", tup)
		}
	}
}
