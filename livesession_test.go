package sampleunion

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// liveUnion builds a small two-join union over relations the tests
// mutate, returning the union and the relations.
func liveUnion(t testing.TB) (*Union, []*Relation) {
	t.Helper()
	mk := func(suffix string, lo, hi int) (*Join, []*Relation) {
		c := NewRelation("cust_"+suffix, NewSchema("custkey", "nationkey"))
		o := NewRelation("ord_"+suffix, NewSchema("orderkey", "custkey"))
		for k := lo; k < hi; k++ {
			c.AppendValues(Value(k), Value(k%5))
			o.AppendValues(Value(k*10), Value(k))
		}
		j, err := Chain("J_"+suffix, []*Relation{c, o}, []string{"custkey"})
		if err != nil {
			t.Fatal(err)
		}
		return j, []*Relation{c, o}
	}
	j1, r1 := mk("east", 0, 30)
	j2, r2 := mk("west", 15, 45)
	u, err := NewUnion(j1, j2)
	if err != nil {
		t.Fatal(err)
	}
	return u, append(r1, r2...)
}

// rebuiltUnion reconstructs an equivalent union from the relations'
// current live tuples — the ground truth a refreshed session must agree
// with.
func rebuiltUnion(t testing.TB, rels []*Relation) *Union {
	t.Helper()
	clone := func(r *Relation) *Relation {
		out := NewRelation(r.Name(), r.Schema())
		out.AppendRows(r.Tuples())
		return out
	}
	j1, err := Chain("J_east", []*Relation{clone(rels[0]), clone(rels[1])}, []string{"custkey"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Chain("J_west", []*Relation{clone(rels[2]), clone(rels[3])}, []string{"custkey"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(j1, j2)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestSessionRefreshServesNewData mutates under a warm session and
// checks that after Refresh every drawn tuple is a member of the
// mutated union and that tuples only reachable through the new rows do
// appear.
func TestSessionRefreshServesNewData(t *testing.T) {
	for _, opts := range []Options{
		{Seed: 7, Warmup: WarmupExact},
		{Seed: 7, Warmup: WarmupHistogram},
		{Seed: 7, Online: true, WarmupWalks: 100},
		// No warm-up walks: each generation's runs refine from an empty
		// walk estimator, which a Refresh must hand on too.
		{Seed: 7, Online: true, WarmupWalks: -1},
	} {
		s, err := liveUnionSession(t, opts)
		if err != nil {
			t.Fatal(err)
		}
		u, rels := s.u, s.rels
		if s.s.Stale() {
			t.Fatal("fresh session reports stale")
		}
		// New customer 999 with two orders: reachable only post-mutation.
		rels[0].AppendRows([]Tuple{{999, 1}})
		rels[1].AppendRows([]Tuple{{5000, 999}, {5001, 999}})
		// Delete one old customer so its results must vanish.
		rels[2].Delete(0)
		deletedKey := Value(15) // first west customer
		if !s.s.Stale() {
			t.Fatal("mutated session reports fresh")
		}
		if err := s.s.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		if s.s.Stale() {
			t.Fatal("refreshed session still stale")
		}
		truth := rebuiltUnion(t, rels)
		out, _, err := s.s.SampleSeeded(1500, 99)
		if err != nil {
			t.Fatal(err)
		}
		sawNew := false
		ck := u.OutputSchema().Index("custkey")
		for _, tup := range out {
			if !truth.Contains(tup) {
				t.Fatalf("opts %+v: sampled %v not in mutated union", opts, tup)
			}
			if tup[ck] == 999 {
				sawNew = true
			}
			if tup[ck] == deletedKey {
				// custkey 15 exists in east too; only flag when the east copy
				// cannot produce it — truth.Contains above already covers
				// correctness, so nothing to do here.
				_ = deletedKey
			}
		}
		if !sawNew {
			t.Fatalf("opts %+v: 1500 post-refresh draws never hit the appended rows", opts)
		}
	}
}

// liveSession bundles a session with its union and relations.
type liveSession struct {
	u    *Union
	rels []*Relation
	s    *Session
}

func liveUnionSession(t testing.TB, o Options) (*liveSession, error) {
	u, rels := liveUnion(t)
	s, err := u.Prepare(o)
	if err != nil {
		return nil, err
	}
	return &liveSession{u: u, rels: rels, s: s}, nil
}

// TestRefreshDeterminism pins that two sessions with identical options,
// mutation history, and refresh points produce bit-identical seeded
// draws.
func TestRefreshDeterminism(t *testing.T) {
	run := func() []Tuple {
		ls, err := liveUnionSession(t, Options{Seed: 11, Warmup: WarmupHistogram})
		if err != nil {
			t.Fatal(err)
		}
		ls.rels[1].AppendRows([]Tuple{{9000, 3}, {9001, 4}})
		ls.rels[0].Delete(2)
		if err := ls.s.Refresh(); err != nil {
			t.Fatal(err)
		}
		out, _, err := ls.s.SampleSeeded(128, 42)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRefreshNoop: refreshing an unmutated session is a cheap no-op.
func TestRefreshNoop(t *testing.T) {
	ls, err := liveUnionSession(t, Options{Seed: 5, Warmup: WarmupExact})
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := ls.s.SampleSeeded(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.s.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, _, err := ls.s.SampleSeeded(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatalf("no-op Refresh changed seeded draw %d", i)
		}
	}
}

// TestStaleAllocatesNothing: Stale compares each join's versions in
// place, on a clean session and a dirty one, sharded or not, over chains
// and over a cyclic join, whose residual's members it reads too.
func TestStaleAllocatesNothing(t *testing.T) {
	tri := func() (*Union, *Relation) {
		r := NewRelation("R", NewSchema("A", "B"))
		s := NewRelation("S", NewSchema("B", "C"))
		x := NewRelation("T", NewSchema("C", "A"))
		for i := 0; i < 20; i++ {
			r.AppendValues(Value(i%5), Value(i%6))
			s.AppendValues(Value(i%6), Value(i%4))
			x.AppendValues(Value(i%4), Value(i%5))
		}
		j, err := Cyclic("tri", []*Relation{r, s, x}, []Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUnion(j)
		if err != nil {
			t.Fatal(err)
		}
		return u, x
	}
	for _, shards := range []int{1, 2} {
		for _, cyclic := range []bool{false, true} {
			u, rels := liveUnion(t)
			mutated := rels[3]
			if cyclic {
				u, mutated = tri()
			}
			s, err := u.Prepare(Options{Seed: 1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, dirty := range []bool{false, true} {
				if dirty {
					mutated.AppendValues(3, 4)
				}
				if got := s.Stale(); got != dirty {
					t.Fatalf("shards %d, cyclic %v: Stale() = %v, want %v", shards, cyclic, got, dirty)
				}
				if allocs := testing.AllocsPerRun(100, func() { s.Stale() }); allocs != 0 {
					t.Errorf("shards %d, cyclic %v, dirty %v: Stale allocates %v objects, want 0", shards, cyclic, dirty, allocs)
				}
			}
		}
	}
}

// TestRefreshDisjointAndWhere covers the satellite paths over a
// refreshed session: disjoint draws and predicate rejection draws must
// serve the mutated data.
func TestRefreshDisjointAndWhere(t *testing.T) {
	ls, err := liveUnionSession(t, Options{Seed: 13, Warmup: WarmupExact})
	if err != nil {
		t.Fatal(err)
	}
	ls.rels[0].AppendRows([]Tuple{{888, 4}})
	ls.rels[1].AppendRows([]Tuple{{8000, 888}})
	if err := ls.s.Refresh(); err != nil {
		t.Fatal(err)
	}
	truth := rebuiltUnion(t, ls.rels)
	dj, _, err := ls.s.SampleDisjointSeeded(600, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range dj {
		if !truth.Contains(tup) {
			t.Fatalf("disjoint draw %v not in mutated union", tup)
		}
	}
	wh, _, err := ls.s.SampleWhereSeeded(100, Cmp{Attr: "custkey", Op: EQ, Val: 888}, 78)
	if err != nil {
		t.Fatal(err)
	}
	if len(wh) != 100 {
		t.Fatalf("where draw returned %d tuples, want 100", len(wh))
	}
	for _, tup := range wh {
		if tup[ls.u.OutputSchema().Index("custkey")] != 888 {
			t.Fatalf("where draw %v violates predicate", tup)
		}
	}
}

// TestConcurrentDrawsMutationsRefresh races session draws against
// relation mutations and Refresh calls (run under -race): draws must
// stay memory-safe on every generation, and the final refreshed state
// must serve exactly the mutated union. The EW legs (random-walk warm-up
// is what serverd resolves an empty declaration to) are the library-level
// regression for Refresh rebuilding a dirty join's weight tables while
// its relations move: no lock above the relations' own is involved.
func TestConcurrentDrawsMutationsRefresh(t *testing.T) {
	for _, opts := range []Options{
		{Seed: 21, Warmup: WarmupHistogram},
		{Seed: 21, Warmup: WarmupRandomWalk},
		{Seed: 21, Warmup: WarmupExact},
		{Seed: 21, Online: true, WarmupWalks: 50},
	} {
		ls, err := liveUnionSession(t, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // mutator
			defer wg.Done()
			for i := 0; i < 120; i++ {
				ls.rels[i%4].Append(Tuple{Value(1000 + i), Value(i % 5)})
				if i%7 == 0 {
					ls.rels[1].Delete(i % ls.rels[1].Len())
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
					if err := ls.s.Refresh(); err != nil {
						t.Errorf("refresh: %v", err)
					}
					return
				default:
					if err := ls.s.Refresh(); err != nil {
						t.Errorf("refresh: %v", err)
						return
					}
				}
			}
		}()
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) { // drawers
				defer wg.Done()
				for i := 0; i < 40; i++ {
					if _, _, err := ls.s.Sample(8); err != nil {
						t.Errorf("draw: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := ls.s.Refresh(); err != nil {
			t.Fatal(err)
		}
		truth := rebuiltUnion(t, ls.rels)
		out, _, err := ls.s.SampleSeeded(400, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range out {
			if !truth.Contains(tup) {
				t.Fatalf("post-settle draw %v not in mutated union", tup)
			}
		}
		// Quiescent Refresh ≡ cold Prepare: under the exact warm-up both
		// know the union's size outright.
		if opts.Warmup == WarmupExact {
			cold, err := truth.Prepare(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ls.s.UnionSize(), cold.UnionSize(); got != want {
				t.Fatalf("refreshed session sizes the union at %v, a cold Prepare at %v", got, want)
			}
		}
	}
}

// TestRefreshCyclicUnion mutates a cyclic join's skeleton and residual
// members under a warm session and checks refreshed draws against the
// rebuilt ground truth.
func TestRefreshCyclicUnion(t *testing.T) {
	r := NewRelation("R", NewSchema("A", "B"))
	s := NewRelation("S", NewSchema("B", "C"))
	x := NewRelation("T", NewSchema("C", "A"))
	for i := 0; i < 20; i++ {
		r.AppendValues(Value(i%5), Value(i%6))
		s.AppendValues(Value(i%6), Value(i%4))
		x.AppendValues(Value(i%4), Value(i%5))
	}
	edges := []Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}
	j, err := Cyclic("tri", []*Relation{r, s, x}, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(j)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := u.Prepare(Options{Seed: 17, Warmup: WarmupHistogram})
	if err != nil {
		t.Fatal(err)
	}
	r.AppendValues(1, 2)
	s.AppendValues(2, 3)
	x.AppendValues(3, 1)
	x.Delete(2)
	if err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	clone := func(rel *Relation) *Relation {
		out := NewRelation(rel.Name(), rel.Schema())
		out.AppendRows(rel.Tuples())
		return out
	}
	fj, err := Cyclic("tri2", []*Relation{clone(r), clone(s), clone(x)}, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	fu, err := NewUnion(fj)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := sess.SampleSeeded(300, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range out {
		if !fu.Contains(tup) {
			t.Fatalf("cyclic refreshed draw %v not in mutated join", tup)
		}
	}
}

// TestRefreshedTablesDrawLikeRebuilt pins that patching the exact-weight
// tables changes no seeded stream: through a refresh that leaves a
// weight-table overlay, one that folds it, and one after a burst large
// enough to compact the indexes (which rebuilds the join's tables
// whole), the refreshed session draws byte-identically to a session
// prepared cold over the same relations — whose tables are built flat.
// The join is a chain cust ⋈ ord ⋈ item, so that the table which
// overlays, folds and is rebuilt is ord's, a node with a child: item, a
// leaf, keeps no table. The exact warm-up keeps the parameters equal on
// both sides, so the tables are the only thing compared.
func TestRefreshedTablesDrawLikeRebuilt(t *testing.T) {
	cust := NewRelation("cust", NewSchema("custkey", "nationkey"))
	ord := NewRelation("ord", NewSchema("orderkey", "custkey"))
	item := NewRelation("item", NewSchema("orderkey", "line"))
	for k := 0; k < 30; k++ {
		cust.AppendValues(Value(k), Value(k%5))
		ord.AppendValues(Value(k*10), Value(k))
		for l := 0; l <= k%3; l++ {
			item.AppendValues(Value(k*10), Value(l))
		}
	}
	j, err := Chain("J", []*Relation{cust, ord, item}, []string{"custkey", "orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(j)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 9, Warmup: WarmupExact}
	s, err := u.Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	next := 9000
	// burst adds n customers with an order and an item each, and an order
	// with an item for n existing customers, and deletes an order.
	burst := func(n int) {
		var custs, ords, items []Tuple
		for i := 0; i < n; i++ {
			custs = append(custs, Tuple{Value(next), Value(next % 5)})
			ords = append(ords, Tuple{Value(next * 10), Value(next)}, Tuple{Value(next*10 + 1), Value(20 + i%10)})
			items = append(items, Tuple{Value(next * 10), 0}, Tuple{Value(next*10 + 1), 0})
			next++
		}
		cust.AppendRows(custs)
		ord.AppendRows(ords)
		item.AppendRows(items)
		ord.Delete(len(ords) % ord.Len())
	}
	steps := []struct {
		rows int
		want func(RefreshStats) bool
		what string
	}{
		{2, func(st RefreshStats) bool {
			return st.SegmentsPatched > 0 && st.NodesRebuilt == 0 && st.JoinsRebuilt == 0
		}, "an overlay"},
		{25, func(st RefreshStats) bool { return st.NodesRebuilt > 0 && st.JoinsRebuilt == 0 }, "a folded node"},
		{400, func(st RefreshStats) bool { return st.JoinsRebuilt == 1 }, "a rebuilt join"},
	}
	for _, step := range steps {
		burst(step.rows)
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		if st := s.RefreshStats(); st.DirtyJoins != 1 || st.Duration <= 0 || !step.want(st) {
			t.Errorf("burst of %d: refresh stats %+v, want %s", step.rows, st, step.what)
		}
		cold, err := s.Union().Prepare(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := s.SampleSeeded(128, 42)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := cold.SampleSeeded(128, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("burst of %d, draw %d: refreshed session %v, cold session %v", step.rows, i, got[i], want[i])
			}
		}
	}
}

// TestFirstRefreshPatchesLastJoinRoot: a join's weights record its
// relations' versions, and a Refresh patches them by following every
// node's mutation log from there — the root's too, which no set-up
// structure turns on for the last join of a union: nothing builds its
// membership tables, and its root is no edge's child. Appending only to
// that root, the first Refresh must patch the join rather than rebuild
// it, and draw as a session prepared cold over the same relations.
func TestFirstRefreshPatchesLastJoinRoot(t *testing.T) {
	u, rels := liveUnion(t)
	opts := Options{Seed: 9, Warmup: WarmupExact}
	s, err := u.Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A second customer row, under another nation, for keys only west
	// holds: results of west alone.
	for k := 40; k < 44; k++ {
		rels[2].AppendValues(Value(k), Value(k%5+1))
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := s.RefreshStats(); st.DirtyJoins != 1 || st.JoinsRebuilt != 0 || st.SegmentsPatched == 0 {
		t.Errorf("refresh stats %+v, want the west join patched, not rebuilt", st)
	}
	cold, err := u.Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.SampleSeeded(128, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cold.SampleSeeded(128, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("draw %d: refreshed session %v, cold session %v", i, got[i], want[i])
		}
	}
}

// TestShardedRefreshStats pins that a sharded session reports its
// refresh's work list — the sum of its shards' — and that a Refresh
// with nothing to do leaves the last effective refresh's report alone.
// The per-shard sum itself is checked in internal/core
// (TestShardedRefresh), which can see the shards.
func TestShardedRefreshStats(t *testing.T) {
	ls, err := liveUnionSession(t, Options{Seed: 3, Shards: 2, Warmup: WarmupRandomWalk})
	if err != nil {
		t.Fatal(err)
	}
	if st := ls.s.RefreshStats(); st != (RefreshStats{}) {
		t.Fatalf("stats before any refresh: %+v", st)
	}
	var cust, ord []Tuple
	for k := 9000; k < 9008; k++ { // enough keys to land in both shards
		cust = append(cust, Tuple{Value(k), Value(k % 5)})
		ord = append(ord, Tuple{Value(k * 10), Value(k)})
	}
	ls.rels[0].AppendRows(cust)
	ls.rels[1].AppendRows(ord)
	if err := ls.s.Refresh(); err != nil {
		t.Fatal(err)
	}
	st := ls.s.RefreshStats()
	if st.DirtyJoins < 1 || st.SegmentsPatched+st.JoinsRebuilt == 0 || st.Walks == 0 || st.Duration <= 0 {
		t.Fatalf("sharded refresh stats %+v: want dirty joins, patched or rebuilt tables, walks and a duration", st)
	}
	if err := ls.s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if again := ls.s.RefreshStats(); again != st {
		t.Fatalf("no-op Refresh changed the stats: %+v, was %+v", again, st)
	}
}

// TestWeightOverflowIsAnError: a join of 2^64 results — four 65 536-row
// relations on one key — fails Prepare under the zero Options with
// ErrWeightOverflow naming the join, where its EW weights used to wrap
// and its draws to make no progress. A Refresh that takes a join past
// math.MaxInt64 results fails the same way, and the session keeps
// drawing the state it had.
func TestWeightOverflowIsAnError(t *testing.T) {
	chain := func(sizes ...int) (*Union, []*Relation) {
		rels := make([]*Relation, len(sizes))
		for i, n := range sizes {
			rels[i] = NewRelation(fmt.Sprintf("R%d", i), NewSchema("K", fmt.Sprintf("P%d", i)))
			keys, payload := make([]Value, n), make([]Value, n)
			for r := range payload {
				payload[r] = Value(r)
			}
			rels[i].AppendColumns([][]Value{keys, payload})
		}
		j, err := Chain("wide", rels, []string{"K", "K", "K"})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUnion(j)
		if err != nil {
			t.Fatal(err)
		}
		return u, rels
	}
	isOverflow := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrWeightOverflow) || !strings.Contains(err.Error(), "join wide") {
			t.Fatalf("%s: error %v, want ErrWeightOverflow naming join wide", what, err)
		}
	}
	u, _ := chain(1<<16, 1<<16, 1<<16, 1<<16)
	_, err := u.Prepare(Options{})
	isOverflow("Prepare", err)

	u, rels := chain(1<<16, 1<<16, 1<<16, 1<<15-1)
	s, err := u.Prepare(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rels[3].AppendValues(0, -1)
	isOverflow("Refresh", s.Refresh())
	if out, _, err := s.Sample(4); err != nil || len(out) != 4 {
		t.Fatalf("after the failed Refresh: %d tuples, error %v", len(out), err)
	}
}
