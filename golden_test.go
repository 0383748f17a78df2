package sampleunion

// Seeded-output pinning: every scenario below draws from a fixed seed
// and hashes the resulting tuple stream, so a passing run proves a
// change altered no sampling decision in any mode (goldenDigests
// records which digests predate which engine change).
//
// To regenerate after an intentional semantic change, run
//
//	GOLDEN_PRINT=1 go test -run TestSeededGolden -v .
//
// and paste the printed map literal over goldenDigests.

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

// goldenUnion builds a small deterministic union of three chain joins.
// The third join's output schema is a permutation of the first's, so
// the alignment (perm != nil) path is exercised.
func goldenUnion(t testing.TB) *Union {
	t.Helper()
	mk := func(suffix string, lo, hi int) *Join {
		c := NewRelation("cust_"+suffix, NewSchema("custkey", "nationkey"))
		o := NewRelation("ord_"+suffix, NewSchema("orderkey", "custkey"))
		for k := lo; k < hi; k++ {
			c.AppendValues(Value(k), Value(k%7))
			o.AppendValues(Value(k*10), Value(k))
			if k%3 == 0 {
				o.AppendValues(Value(k*10+1), Value(k))
			}
		}
		j, err := Chain("J_"+suffix, []*Relation{c, o}, []string{"custkey"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Permuted join: root is the orders relation, so the output schema is
	// (orderkey, custkey, nationkey) instead of (custkey, nationkey, orderkey).
	mkPerm := func(suffix string, lo, hi int) *Join {
		o := NewRelation("ord_"+suffix, NewSchema("orderkey", "custkey"))
		c := NewRelation("cust_"+suffix, NewSchema("custkey", "nationkey"))
		for k := lo; k < hi; k++ {
			c.AppendValues(Value(k), Value(k%7))
			o.AppendValues(Value(k*10), Value(k))
		}
		j, err := Chain("J_"+suffix, []*Relation{o, c}, []string{"custkey"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	u, err := NewUnion(mk("east", 0, 60), mk("west", 30, 90), mkPerm("perm", 50, 120))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// goldenCyclicUnion is a one-join union over a triangle join, covering
// the residual (skeleton + materialized residual) sampling path.
func goldenCyclicUnion(t testing.TB) *Union {
	t.Helper()
	r := NewRelation("R", NewSchema("A", "B"))
	s := NewRelation("S", NewSchema("B", "C"))
	x := NewRelation("T", NewSchema("C", "A"))
	for i := 0; i < 24; i++ {
		r.AppendValues(Value(i%6), Value(i%8))
		s.AppendValues(Value(i%8), Value(i%5))
		x.AppendValues(Value(i%5), Value(i%6))
	}
	j, err := Cyclic("tri", []*Relation{r, s, x},
		[]Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(j)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// digest hashes a tuple stream; equal digests mean byte-identical
// samples in order.
func digest(ts []Tuple) string {
	h := fnv.New64a()
	for _, t := range ts {
		for _, v := range t {
			u := uint64(v)
			h.Write([]byte{
				byte(u >> 56), byte(u >> 48), byte(u >> 40), byte(u >> 32),
				byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u),
			})
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenDigests holds the reference digests (see the file comment for
// how they are produced). There is one draw engine, so each mode pins
// one stream: Session.SampleSeeded, which the deprecated *Batch*
// forwarders return verbatim (TestForwardersMatchEngine).
//
// History: every row over the three-join union except exact-ew and
// disjoint was re-pinned when exact membership became the only accept
// rule (a value belongs to the first join that contains it; before, a
// run learned that from its own record and revised). exact-ew, which
// already drew that way under an option since removed, disjoint,
// and the one-join cyclic rows, where there is nothing to assign, kept
// their digests; online took the digest of the online-oracle row, which
// was then deleted as its duplicate. online, online-where, shard-online and mutate-online were
// re-pinned when the walk warm-up began estimating each cover size
// directly (a Horvitz–Thompson mean over the join's own walks) instead
// of by inclusion–exclusion over an overlap table; cover-ew and the
// since-deleted cover-wj read the same estimates, but their covers moved
// too little to change any of their 64 join selections. Every EW row —
// cover-ew, exact-ew, shard-cover-ew, disjoint, where, mutate-cover-ew
// and shard-mutate-cover-ew — was re-pinned when segments of
// join.LargeRows rows or more stopped drawing through alias tables and
// drew, like the small ones, one exact bounded integer below the
// segment's total. When the join subroutine stopped being an option,
// the rows that chose EO by name went, and shard-cyclic-ew and
// mutate-cyclic-ew were pinned in place of shard-cyclic-eo and
// mutate-cyclic-eo, so the sharded cyclic path and the cyclic
// residual's extend-and-rebuild refresh stay pinned.
var goldenDigests = map[string]string{
	"cover-ew":  "d31076ae34640123",
	"exact-ew":  "31c75425703f1b30",
	"online":    "f972938db680d37a",
	"cyclic-ew": "ab392a7ebf43258d",
	// The one session path on which a served batch leaves entries buffered
	// and the arena is compacted behind them.
	"online-where": "e8cada294a0d5c82",
	// Sharded streams: the union is hash-partitioned into shards and
	// draws alias-select a shard per tuple, so these differ from the
	// single-shard recordings above. They depend only on (seed, shard
	// count), never on worker scheduling.
	"shard-cover-ew":  "a750462020b3260d",
	"shard-online":    "3ebf90456aeffb92",
	"shard-cyclic-ew": "93b8a45c4f8ea683",

	"disjoint": "e4d829f9c05f549d",
	"where":    "1c99c10fa191601f",
	// Post-mutation refreshed draws: a fixed mutation script plus
	// Session.Refresh, then the same seeded stream — this repo's form of
	// "maintained answer ≡ recomputed answer after every update".
	"mutate-cover-ew":       "d1e0fbfb35d23a22",
	"mutate-online":         "a2c636a45af237f4",
	"mutate-cyclic-ew":      "8a5078041d6b4e85",
	"shard-mutate-cover-ew": "e6eaa107028cd15a",
}

// goldenSeed is the session seed of every golden scenario; goldenStream
// the explicit draw stream.
const (
	goldenSeed   = 424242
	goldenStream = 99
)

// goldenMode is one prepared configuration whose plain seeded stream is
// pinned: a union and the options it is prepared under.
type goldenMode struct {
	name string
	u    *Union
	o    Options
}

// goldenModes lists the session configurations under test. The modes
// table also drives TestForwardersMatchEngine.
func goldenModes(t testing.TB) []goldenMode {
	u := goldenUnion(t)
	cu := goldenCyclicUnion(t)
	return []goldenMode{
		{"cover-ew", u, Options{Warmup: WarmupRandomWalk, WarmupWalks: 200}},
		{"exact-ew", u, Options{Warmup: WarmupExact}},
		{"online", u, Options{Online: true, WarmupWalks: 150}},
		{"cyclic-ew", cu, Options{Warmup: WarmupHistogram}},
		// Sharded: cover, online, and cyclic (residual rebound per shard).
		{"shard-cover-ew", u, Options{Warmup: WarmupExact, Shards: 3}},
		{"shard-online", u, Options{Online: true, WarmupWalks: 150, Shards: 2}},
		{"shard-cyclic-ew", cu, Options{Warmup: WarmupHistogram, Shards: 2}},
	}
}

// prepareGolden prepares a mode's session under the golden seed.
func prepareGolden(t testing.TB, u *Union, o Options) *Session {
	t.Helper()
	o.Seed = goldenSeed
	s, err := u.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scenario is one pinned stream: a name and the seeded draw behind it.
type scenario struct {
	name string
	draw func() ([]Tuple, error)
}

func goldenScenarios(t testing.TB) []scenario {
	var scs []scenario
	for _, m := range goldenModes(t) {
		s := prepareGolden(t, m.u, m.o)
		scs = append(scs, scenario{m.name, func() ([]Tuple, error) {
			out, _, err := s.SampleSeeded(64, goldenStream)
			return out, err
		}})
	}
	u := goldenUnion(t)
	return append(scs,
		scenario{"disjoint", func() ([]Tuple, error) {
			s := prepareGolden(t, u, Options{Warmup: WarmupExact})
			out, _, err := s.SampleDisjointSeeded(64, goldenStream)
			return out, err
		}},
		scenario{"where", func() ([]Tuple, error) {
			s := prepareGolden(t, u, Options{Warmup: WarmupExact})
			out, _, err := s.SampleWhereSeeded(32, Cmp{Attr: "nationkey", Op: LT, Val: 4}, goldenStream)
			return out, err
		}},
		// An online run under a selective predicate: SampleWhere calls
		// Sample several times on one run, and a call that overshoots by a
		// multi-instance commit leaves entries buffered for the next.
		scenario{"online-where", func() ([]Tuple, error) {
			s := prepareGolden(t, u, Options{Online: true, WarmupWalks: 150})
			out, _, err := s.SampleWhereSeeded(200, Cmp{Attr: "nationkey", Op: LT, Val: 1}, goldenStream)
			return out, err
		}},
		scenario{"mutate-cover-ew", mutateDraw(t, Options{Warmup: WarmupExact})},
		scenario{"mutate-online", mutateDraw(t, Options{Online: true, WarmupWalks: 150})},
		scenario{"mutate-cyclic-ew", mutateCyclicDraw(t)},
		// Dirty shards rebuilt via the delta path.
		scenario{"shard-mutate-cover-ew", mutateDraw(t, Options{Warmup: WarmupExact, Shards: 3})},
	)
}

// mutateDraw pins the refreshed-draw path: prepare a session over a
// fresh golden union, apply a fixed mutation script (a batch append, a
// single append, and two deletes), Refresh, and draw a seeded stream.
// Refresh randomness is derived from the session seed and refresh
// count, so the digest is stable.
func mutateDraw(t testing.TB, o Options) func() ([]Tuple, error) {
	u := goldenUnion(t)
	s := prepareGolden(t, u, o)
	return func() ([]Tuple, error) {
		cust := u.Joins()[0].Nodes()[0].Rel
		ord := u.Joins()[0].Nodes()[1].Rel
		cust.AppendRows([]Tuple{{500, 1}, {501, 2}})
		ord.AppendRows([]Tuple{{5000, 500}, {5001, 500}, {5002, 501}})
		cust.Delete(3)
		ord.Delete(10)
		if err := s.Refresh(); err != nil {
			return nil, err
		}
		out, _, err := s.SampleSeeded(64, goldenStream)
		return out, err
	}
}

// mutateCyclicDraw is mutateDraw over a triangle join: the mutations
// touch every base relation — skeleton nodes and the residual member —
// so the refreshed draw exercises residual reconciliation (append-only
// delta join on one burst, full re-materialization after the delete).
func mutateCyclicDraw(t testing.TB) func() ([]Tuple, error) {
	r := NewRelation("R", NewSchema("A", "B"))
	s := NewRelation("S", NewSchema("B", "C"))
	x := NewRelation("T", NewSchema("C", "A"))
	for i := 0; i < 24; i++ {
		r.AppendValues(Value(i%6), Value(i%8))
		s.AppendValues(Value(i%8), Value(i%5))
		x.AppendValues(Value(i%5), Value(i%6))
	}
	j, err := Cyclic("tri", []*Relation{r, s, x},
		[]Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := NewUnion(j)
	if err != nil {
		t.Fatal(err)
	}
	sess := prepareGolden(t, cu, Options{Warmup: WarmupHistogram})
	return func() ([]Tuple, error) {
		// Append-only burst across all three relations, then refresh.
		r.AppendRows([]Tuple{{1, 2}, {3, 7}})
		s.AppendValues(7, 3)
		x.AppendValues(3, 1)
		if err := sess.Refresh(); err != nil {
			return nil, err
		}
		// A delete forces the full-rebuild path on the second refresh.
		s.Delete(5)
		x.Delete(2)
		if err := sess.Refresh(); err != nil {
			return nil, err
		}
		out, _, err := sess.SampleSeeded(64, goldenStream)
		return out, err
	}
}

// TestSeededGolden pins seeded sampling output across every draw path:
// cover (exact and estimated parameters), online, disjoint,
// predicate rejection, and cyclic joins with a residual.
func TestSeededGolden(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") != ""
	for _, sc := range goldenScenarios(t) {
		out, err := sc.draw()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got := digest(out)
		if print {
			fmt.Printf("\t%q: %q,\n", sc.name, got)
			continue
		}
		if want := goldenDigests[sc.name]; got != want {
			t.Errorf("%s: seeded output digest = %s, want %s (sampling decisions changed)", sc.name, got, want)
		}
	}
}
