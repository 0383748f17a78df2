package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// rebuiltFrom builds a fresh relation holding exactly r's live rows —
// the from-scratch reference a delta-overlaid index must agree with.
func rebuiltFrom(r *Relation) *Relation {
	out := New(r.Name()+"_rebuilt", r.Schema())
	out.AppendRows(r.Tuples())
	return out
}

// checkIndexEquivalence compares every probe the Index API answers
// against a rebuilt-from-scratch reference over a value domain wide
// enough to include absent values.
func checkIndexEquivalence(t *testing.T, r *Relation, lo, hi Value) {
	t.Helper()
	ref := rebuiltFrom(r)
	if got, want := r.LiveLen(), ref.Len(); got != want {
		t.Fatalf("LiveLen = %d, want %d", got, want)
	}
	for a := 0; a < r.Arity(); a++ {
		if got, want := r.MaxDegree(a), ref.MaxDegree(a); got != want {
			t.Fatalf("attr %d: MaxDegree = %d, want %d", a, got, want)
		}
		if got, want := r.DistinctCount(a), ref.DistinctCount(a); got != want {
			t.Fatalf("attr %d: DistinctCount = %d, want %d", a, got, want)
		}
		// The dense-entry view: EachEntry's n-th call carries entry n's
		// rows, the ones the per-value probes return, and EntryOf inverts
		// ValueAt — under the overlay too (emptied base entries
		// keep their id; new values follow the base).
		ix, next, total := r.Index(a), 0, 0
		ix.EachEntry(func(rows []int) {
			e := next
			next++
			total += len(rows)
			v := ix.ValueAt(e)
			if got, ok := ix.EntryOf(v); !ok || got != e {
				t.Fatalf("attr %d: EntryOf(ValueAt(%d)) = %d, %v", a, e, got, ok)
			}
			if want := ix.Rows(v); !reflect.DeepEqual(append([]int(nil), rows...), append([]int(nil), want...)) {
				t.Fatalf("attr %d entry %d (value %d): EachEntry rows %v, Rows %v", a, e, v, rows, want)
			}
		})
		if next != ix.NumEntries() || total != r.LiveLen() {
			t.Fatalf("attr %d: EachEntry visited %d of %d entries holding %d of %d live rows",
				a, next, ix.NumEntries(), total, r.LiveLen())
		}
		for v := lo; v <= hi; v++ {
			if _, ok := ix.EntryOf(v); !ok && ref.Degree(a, v) > 0 {
				t.Fatalf("attr %d value %d: EntryOf misses a value with %d live rows", a, v, ref.Degree(a, v))
			}
			if got, want := r.Degree(a, v), ref.Degree(a, v); got != want {
				t.Fatalf("attr %d value %d: Degree = %d, want %d", a, v, got, want)
			}
			got, want := r.Matches(a, v), ref.Matches(a, v)
			if len(got) != len(want) {
				t.Fatalf("attr %d value %d: %d matches, want %d", a, v, len(got), len(want))
			}
			// Row ids differ between live and rebuilt relations (tombstones
			// leave holes), but both must be ascending and hold the value.
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("attr %d value %d: matches not ascending: %v", a, v, got)
				}
			}
			for _, row := range got {
				if !r.Live(row) {
					t.Fatalf("attr %d value %d: match returned dead row %d", a, v, row)
				}
				if r.Value(row, a) != v {
					t.Fatalf("attr %d value %d: match row %d holds %d", a, v, row, r.Value(row, a))
				}
			}
		}
	}
	// Multisets of live tuples must agree too (catches liveness bugs the
	// per-attribute probes cannot see).
	count := func(rel *Relation) map[string]int {
		m := make(map[string]int)
		for _, tup := range rel.Tuples() {
			m[TupleKey(tup)]++
		}
		return m
	}
	if got, want := count(r), count(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("live tuple multiset diverged: %v vs %v", got, want)
	}
}

// driveLiveRelation applies a scripted mutation stream, probing along
// the way so indexes repeatedly build, overlay, and compact. ops is an
// arbitrary byte stream (shared with FuzzLiveIndex).
func driveLiveRelation(t *testing.T, ops []byte, arity int, degrade uint64) {
	t.Helper()
	schema := make([]string, arity)
	for i := range schema {
		schema[i] = string(rune('A' + i))
	}
	r := New("live", NewSchema(schema...))
	if degrade != 0 {
		r.SetHashDegradeForTest(degrade)
	}
	driveLive(t, r, ops)
}

// driveLive is driveLiveRelation over a relation the caller made (and
// may have loaded).
func driveLive(t *testing.T, r *Relation, ops []byte) {
	t.Helper()
	arity := r.Arity()
	val := func(b byte) Value { return Value(int(b%11) - 2) }
	mkRow := func(seed byte) Tuple {
		row := make(Tuple, arity)
		for i := range row {
			row[i] = val(seed + byte(i)*7)
		}
		return row
	}
	// Build the indexes up front so every later mutation exercises the
	// overlay catch-up rather than a cold build.
	for a := 0; a < arity; a++ {
		r.Index(a)
	}
	var kept []generation
	checks := 0
	for pc := 0; pc < len(ops); pc++ {
		op := ops[pc]
		switch op % 5 {
		case 0: // single append
			r.Append(mkRow(op / 5))
		case 1: // batch append (may blow the overlay budget -> compaction)
			n := int(op/5) % 90
			rows := make([]Tuple, n)
			for i := range rows {
				rows[i] = mkRow(op/5 + byte(i))
			}
			r.AppendRows(rows)
		case 2: // delete by pseudo-random row id (dead ids exercise the miss path)
			if r.Len() > 0 {
				r.Delete(int(op/5) * 13 % r.Len())
			}
		case 3: // probe: forces the overlay build mid-stream; keep what it returned
			for a := 0; a < arity; a++ {
				ix := r.Index(a)
				kept = append(kept, generation{a, ix, r.snap.Load()})
				ix.Degree(val(op / 5))
				ix.Rows(val(op))
			}
		case 4: // full check at intermediate states (bounded: they are costly)
			if checks < 3 {
				checks++
				checkIndexEquivalence(t, r, -3, 9)
			}
		}
	}
	checkIndexEquivalence(t, r, -3, 9)
	checkGenerations(t, kept, r.testDegrade, -3, 9)
}

// generation is an index as a caller got it, with the storage snapshot
// of the version it reflects.
type generation struct {
	a    int
	ix   *Index
	snap *snapshot
}

// checkGenerations re-checks kept indexes, after everything that came
// later, against from-scratch builds over their own snapshots: a catch-up
// that wrote where an older generation reads — two successors extending
// one overlay, say — shows here.
func checkGenerations(t *testing.T, kept []generation, degrade uint64, lo, hi Value) {
	t.Helper()
	for i, g := range kept {
		ix, want := g.ix, buildIndex(g.snap, g.a, g.ix.version, degrade)
		if ix.MaxDegree() != want.MaxDegree() || ix.Distinct() != want.Distinct() {
			t.Fatalf("generation %d (attr %d, version %d): MaxDegree %d Distinct %d, rebuilt %d %d",
				i, g.a, ix.version, ix.MaxDegree(), ix.Distinct(), want.MaxDegree(), want.Distinct())
		}
		for v := lo; v <= hi; v++ {
			if got := ix.Rows(v); !slices.Equal(got, want.Rows(v)) || ix.Degree(v) != len(got) {
				t.Fatalf("generation %d (attr %d, version %d) value %d: rows %v (degree %d), rebuilt %v",
					i, g.a, ix.version, v, got, ix.Degree(v), want.Rows(v))
			}
		}
		e := 0
		ix.EachEntry(func(rows []int) {
			if v := ix.ValueAt(e); !slices.Equal(rows, ix.Rows(v)) {
				t.Fatalf("generation %d (attr %d) entry %d: EachEntry rows %v, Rows(%d) %v", i, g.a, e, rows, v, ix.Rows(v))
			}
			if got, ok := ix.EntryOf(ix.ValueAt(e)); !ok || got != e {
				t.Fatalf("generation %d (attr %d): EntryOf(ValueAt(%d)) = %d, %v", i, g.a, e, got, ok)
			}
			e++
		})
	}
}

// TestLiveIndexMatchesRebuilt drives randomized interleavings of
// Append/AppendRows/Delete/probe and checks the delta-overlaid indexes
// answer Matches/Degree/MaxDegree/DistinctCount exactly like an index
// rebuilt from scratch — including under degraded hashes that force
// fingerprint collisions (the key_test.go technique applied to the
// index layer).
func TestLiveIndexMatchesRebuilt(t *testing.T) {
	for _, degrade := range []uint64{0, 0xF, 0x3} {
		for seed := int64(0); seed < 12; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			ops := make([]byte, 300)
			rnd.Read(ops)
			for _, arity := range []int{1, 2, 3} {
				driveLiveRelation(t, ops, arity, degrade)
			}
		}
	}
}

// TestDeltaOverlayCompaction crosses the overlay budget in one batch
// and in many small steps; both must converge to the same answers.
func TestDeltaOverlayCompaction(t *testing.T) {
	r := New("compact", NewSchema("A", "B"))
	for i := 0; i < 100; i++ {
		r.AppendValues(Value(i%10), Value(i%3))
	}
	r.Index(0)
	r.Index(1)
	// Small steps: stay in the overlay.
	for i := 0; i < 30; i++ {
		r.AppendValues(Value(i%17), Value(i%5))
		r.Degree(0, Value(i%17))
	}
	checkIndexEquivalence(t, r, -1, 20)
	// One huge batch: tail exceeds the budget, forcing a pure-CSR rebuild.
	big := make([]Tuple, 400)
	for i := range big {
		big[i] = Tuple{Value(i % 23), Value(i % 7)}
	}
	r.AppendRows(big)
	checkIndexEquivalence(t, r, -1, 25)
	// Deletions over the compacted index.
	for i := 0; i < 60; i++ {
		r.Delete(i * 7 % r.Len())
	}
	checkIndexEquivalence(t, r, -1, 25)
}

// TestDeleteSemantics pins the tombstone contract: stable row ids,
// LiveLen accounting, idempotent Delete, and live-only derived views.
func TestDeleteSemantics(t *testing.T) {
	r := New("del", NewSchema("A", "B"))
	r.AppendValues(1, 10)
	r.AppendValues(2, 20)
	r.AppendValues(3, 30)
	if !r.Delete(1) {
		t.Fatal("Delete(1) = false on a live row")
	}
	if r.Delete(1) {
		t.Fatal("Delete(1) = true on a dead row")
	}
	if r.Delete(99) || r.Delete(-1) {
		t.Fatal("Delete out of range = true")
	}
	if r.Len() != 3 || r.LiveLen() != 2 {
		t.Fatalf("Len/LiveLen = %d/%d, want 3/2", r.Len(), r.LiveLen())
	}
	if got := r.Row(1); got[0] != 2 || got[1] != 20 {
		t.Fatalf("dead row values changed: %v", got)
	}
	if got := len(r.Tuples()); got != 2 {
		t.Fatalf("Tuples returned %d rows, want 2", got)
	}
	f := r.Filter("f", True{})
	if f.Len() != 2 {
		t.Fatalf("Filter kept %d rows, want 2", f.Len())
	}
	p, err := r.Project("p", []string{"A"})
	if err != nil || p.Len() != 2 {
		t.Fatalf("Project = %v rows (err %v), want 2", p.Len(), err)
	}
	if r.Degree(0, 2) != 0 || r.Degree(0, 1) != 1 {
		t.Fatalf("Degree after delete: d(2)=%d d(1)=%d", r.Degree(0, 2), r.Degree(0, 1))
	}
}

// TestMutationLogTail pins MutationsSince semantics: exact tails,
// trimming past the retention bound, and the enable point.
func TestMutationLogTail(t *testing.T) {
	r := New("log", NewSchema("A"))
	r.AppendValues(1) // before any derived structure: not logged
	r.Index(0)        // enables the log
	v0 := r.Version()
	r.AppendValues(2)
	r.AppendValues(3)
	r.Delete(0)
	tail, upTo, ok := r.MutationsSince(v0)
	if !ok || upTo != v0+3 || len(tail) != 3 {
		t.Fatalf("MutationsSince = %d entries upTo %d ok %v, want 3/%d/true", len(tail), upTo, ok, v0+3)
	}
	if tail[0].Kind != MutAppend || tail[0].Row != 1 {
		t.Fatalf("tail[0] = %+v, want append row 1", tail[0])
	}
	if tail[2].Kind != MutDelete || tail[2].Row != 0 || tail[2].Vals != nil || r.Value(tail[2].Row, 0) != 1 {
		t.Fatalf("tail[2] = %+v (storage holds %d), want delete row 0 with no values, storage holding 1", tail[2], r.Value(tail[2].Row, 0))
	}
	if _, _, ok := r.MutationsSince(v0 - 1); ok {
		t.Fatal("MutationsSince before the enable point must fail")
	}
	// Overflow the retention bound; old positions become unavailable but
	// recent ones survive.
	for i := 0; i < maxLogLen+100; i++ {
		r.AppendValues(Value(i))
	}
	if _, _, ok := r.MutationsSince(v0); ok {
		t.Fatal("MutationsSince across a trimmed tail must fail")
	}
	vRecent := r.Version() - 10
	if tail, _, ok := r.MutationsSince(vRecent); !ok || len(tail) != 10 {
		t.Fatalf("recent tail = %d entries ok %v, want 10/true", len(tail), ok)
	}
	checkIndexEquivalence(t, r, -3, 9)
}

// TestConcurrentOverlayFirstBuild mutates a relation with built
// indexes, then lets many goroutines race to the first probe: the delta
// overlay must build exactly once behind the lock and every reader must
// see a correct answer (run under -race).
func TestConcurrentOverlayFirstBuild(t *testing.T) {
	r := New("race", NewSchema("A", "B"))
	for i := 0; i < 200; i++ {
		r.AppendValues(Value(i%20), Value(i%7))
	}
	r.Index(0)
	r.Index(1)
	for round := 0; round < 20; round++ {
		r.AppendValues(Value(100+round), Value(round%7))
		r.Delete(round * 3)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for a := 0; a < 2; a++ {
					r.Degree(a, Value(w%20))
					for _, row := range r.Matches(a, Value(w%7)) {
						_ = r.Row(row)
					}
					r.MaxDegree(a)
					r.DistinctCount(a)
				}
			}(w)
		}
		wg.Wait()
	}
	checkIndexEquivalence(t, r, -1, 120)
}

// TestConcurrentMutateAndProbe races mutators against probers: the
// assertions here are memory safety and sane invariants (ids in range,
// values match); exact answers are checked after the dust settles.
func TestConcurrentMutateAndProbe(t *testing.T) {
	r := New("churn", NewSchema("A", "B"))
	for i := 0; i < 100; i++ {
		r.AppendValues(Value(i%13), Value(i%5))
	}
	r.Index(0)
	r.Index(1)
	done := make(chan struct{})
	var mutWG, probeWG sync.WaitGroup
	mutWG.Add(1)
	go func() { // mutator (bounded: an unthrottled writer starves race-slowed probers)
		defer mutWG.Done()
		for i := 0; i < 1500; i++ {
			select {
			case <-done:
				return
			default:
			}
			switch i % 3 {
			case 0:
				r.AppendValues(Value(i%13), Value(i%5))
			case 1:
				r.AppendRows([]Tuple{{Value(i % 17), Value(i % 5)}, {Value(i % 13), Value(i % 3)}})
			case 2:
				r.Delete(i * 11 % r.Len())
			}
		}
	}()
	for w := 0; w < 4; w++ {
		probeWG.Add(1)
		go func(w int) {
			defer probeWG.Done()
			for i := 0; i < 1200; i++ {
				v := Value((i + w) % 17)
				for _, row := range r.Matches(0, v) {
					if row >= r.Len() {
						t.Errorf("match row %d out of range %d", row, r.Len())
						return
					}
					if r.Value(row, 0) != v {
						t.Errorf("match row %d holds %d, want %d", row, r.Value(row, 0), v)
						return
					}
				}
				_ = r.MaxDegree(1)
			}
		}(w)
	}
	probeWG.Wait()
	close(done)
	mutWG.Wait()
	checkIndexEquivalence(t, r, -1, 20)
}

// TestOldGenerationsUnderCatchUp: readers keep probing every index a
// writer got from Relation.Index, each against the rows it answered with
// when it was new, while the writer mutates and catches the index up
// again — overlays extended, compacted and extended anew. Each catch-up
// gets a sibling too — caught up from the same predecessor, one mutation
// short, while the catch-up is built — and both must equal a cold build
// (run under -race: a catch-up that writes where an older generation or
// its sibling reads, or two successors extending one overlay in place,
// is a race or a mismatch).
func TestOldGenerationsUnderCatchUp(t *testing.T) {
	r := New("gens", NewSchema("A", "B"))
	for i := 0; i < 400; i++ {
		r.AppendValues(Value(i%40), Value(i%7))
	}
	const domain = 160
	type pinned struct {
		ix   *Index
		rows [][]int // per value 0..domain-1
	}
	var mu sync.Mutex
	var gens []pinned
	var passes atomic.Int64 // reader passes over a generation
	done := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := w; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				n := len(gens)
				var g pinned
				if n > 0 {
					g = gens[i%n]
				}
				mu.Unlock()
				for v := 0; n > 0 && v < domain; v++ {
					if got := g.ix.Rows(Value(v)); !slices.Equal(got, g.rows[v]) || g.ix.Degree(Value(v)) != len(got) {
						t.Errorf("version %d value %d: rows %v, published as %v", g.ix.version, v, got, g.rows[v])
						return
					}
				}
				if n > 0 {
					passes.Add(1)
				}
			}
		}(w)
	}
	rnd := rand.New(rand.NewSource(3))
	mutate := func() {
		if rnd.Intn(4) == 0 {
			r.Delete(rnd.Intn(r.Len()))
		} else {
			r.AppendValues(Value(rnd.Intn(domain)), Value(rnd.Intn(7)))
		}
	}
	// coldDiff reports where ix answers otherwise than an index built
	// over s.
	coldDiff := func(ix *Index, s *snapshot) string {
		cold := buildIndex(s, 0, ix.version, 0)
		for v := Value(0); v < domain; v++ {
			if got, want := ix.Rows(v), cold.Rows(v); !slices.Equal(got, want) || ix.Degree(v) != len(want) {
				return fmt.Sprintf("value %d: rows %v, cold build %v", v, got, want)
			}
		}
		if ix.MaxDegree() != cold.MaxDegree() {
			return fmt.Sprintf("max degree %d, cold build %d", ix.MaxDegree(), cold.MaxDegree())
		}
		return ""
	}
	compactions, siblings := 0, 0
	var prev *Index
	for step := 0; step < 300; step++ {
		mutate()
		// A sibling catches prev up to this mutation while Relation.Index
		// catches it up to the next one; either may claim the overlay.
		var sibling *Index
		var sibSnap *snapshot
		var built sync.WaitGroup
		if prev != nil {
			r.mu.Lock()
			tail, upTo, _ := r.mutationsSinceLocked(prev.version)
			sibSnap = r.snap.Load()
			r.mu.Unlock()
			mutate()
			built.Add(1)
			go func() {
				defer built.Done()
				sibling = prev.applyTail(sibSnap, 0, tail, upTo)
			}()
		}
		p := pinned{ix: r.Index(0), rows: make([][]int, domain)}
		built.Wait()
		for v := range p.rows {
			p.rows[v] = slices.Clone(p.ix.Rows(Value(v)))
		}
		if d := coldDiff(p.ix, r.snap.Load()); d != "" {
			t.Fatalf("step %d: the catch-up differs from a cold build: %s", step, d)
		}
		if sibling != nil && p.ix.SameBase(prev) {
			siblings++
			if d := coldDiff(sibling, sibSnap); d != "" {
				t.Fatalf("step %d: the second successor of one index differs from a cold build: %s", step, d)
			}
		}
		mu.Lock()
		if len(gens) > 0 && !p.ix.SameBase(gens[len(gens)-1].ix) {
			compactions++
		}
		gens = append(gens, p)
		mu.Unlock()
		prev = p.ix
		// Let the readers probe old generations while the next is built.
		for want, spin := passes.Load()+1, 0; passes.Load() < want && spin < 1000; spin++ {
			runtime.Gosched()
		}
	}
	close(done)
	readers.Wait()
	if compactions < 2 || siblings < 150 {
		t.Fatalf("script compacted %d times and built %d siblings, want at least 2 and 150", compactions, siblings)
	}
}

// FuzzLiveIndex feeds arbitrary op streams through the live-relation
// driver: any divergence between the delta-overlaid index and a rebuilt
// reference, or any panic, is a finding.
func FuzzLiveIndex(f *testing.F) {
	for _, s := range liveIndexSeeds {
		f.Add(s.ops, uint8(s.arity-1), s.degrade)
	}
	f.Fuzz(func(t *testing.T, ops []byte, arity uint8, degrade bool) {
		a := int(arity)%3 + 1
		if len(ops) > 400 {
			ops = ops[:400]
		}
		var mask uint64
		if degrade {
			mask = 0x7
		}
		driveLiveRelation(t, ops, a, mask)
	})
}
