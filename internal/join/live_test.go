package join

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"sampleunion/internal/relation"
)

// execKeys returns the sorted multiset of a join's results.
func execKeys(j *Join) []string {
	var keys []string
	for _, t := range execute(j) {
		keys = append(keys, relation.TupleKey(t))
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cloneRel copies a relation's live rows into a fresh relation.
func cloneRel(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Name(), r.Schema())
	out.AppendRows(r.Tuples())
	return out
}

// TestMembershipIncremental drives a chain join's membership tables
// through append and delete bursts and checks Contains against a join
// rebuilt from the mutated data — the incremental delta path must be
// observationally identical to a cold rebuild.
func TestMembershipIncremental(t *testing.T) {
	a := relation.New("A", relation.NewSchema("x", "y"))
	b := relation.New("B", relation.NewSchema("y", "z"))
	for i := 0; i < 40; i++ {
		a.AppendValues(relation.Value(i), relation.Value(i%6))
		b.AppendValues(relation.Value(i%6), relation.Value(i%4))
	}
	j, err := NewChain("chain", []*relation.Relation{a, b}, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	j.PrewarmMembership() // build the base tables

	check := func() {
		t.Helper()
		fresh, err := NewChain("fresh", []*relation.Relation{cloneRel(a), cloneRel(b)}, []string{"y"})
		if err != nil {
			t.Fatal(err)
		}
		// Probe every tuple of the fresh result plus perturbed non-members.
		for _, tup := range execute(fresh) {
			if !j.Contains(tup) {
				t.Fatalf("Contains(%v) = false for a result tuple", tup)
			}
			miss := tup.Clone()
			miss[0] = 999
			if j.Contains(miss) != fresh.Contains(miss) {
				t.Fatalf("Contains(%v) diverges from rebuilt join", miss)
			}
		}
		// And the reverse: members of the stale generation that died.
		if !sameKeys(execKeys(j), execKeys(fresh)) {
			t.Fatal("Enumerate diverged from the rebuilt join")
		}
	}

	// Small append burst: the delta path.
	a.AppendRows([]relation.Tuple{{100, 1}, {101, 2}})
	b.AppendValues(2, 9)
	check()
	// Deletions: negative delta counts.
	a.Delete(0)
	b.Delete(3)
	check()
	// Delete one copy of a duplicated row: multiset counting must keep
	// the survivor a member.
	b.AppendValues(1, 7)
	b.AppendValues(1, 7)
	j.PrewarmMembership()
	probe := relation.Tuple{0, 1, 7} // x,y,z with (1,7) in B twice... x must exist with y=1
	a.AppendValues(0, 1)
	j.PrewarmMembership()
	if !j.Contains(relation.Tuple{0, 1, 7}) {
		t.Fatalf("Contains(%v) = false before duplicate delete", probe)
	}
	for i := 0; i < b.Len(); i++ {
		if b.Live(i) && b.Value(i, 0) == 1 && b.Value(i, 1) == 7 {
			b.Delete(i)
			break
		}
	}
	if !j.Contains(relation.Tuple{0, 1, 7}) {
		t.Fatal("deleting one of two duplicate rows must keep membership")
	}
	check()
	// Large burst: exceeds the delta budget, forcing a base rebuild.
	big := make([]relation.Tuple, 600)
	for i := range big {
		big[i] = relation.Tuple{relation.Value(200 + i), relation.Value(i % 6)}
	}
	a.AppendRows(big)
	check()
}

// TestResidualIncrementalAppend checks that append-only mutations to a
// cyclic join's residual members extend the materialization by a delta
// join with results identical to a from-scratch NewCyclic over the same
// data, and that deletions (which fall back to full re-materialization)
// are identical too.
func TestResidualIncrementalAppend(t *testing.T) {
	mk := func() (*relation.Relation, *relation.Relation, *relation.Relation) {
		r := relation.New("R", relation.NewSchema("A", "B"))
		s := relation.New("S", relation.NewSchema("B", "C"))
		u := relation.New("T", relation.NewSchema("C", "A"))
		for i := 0; i < 18; i++ {
			r.AppendValues(relation.Value(i%5), relation.Value(i%7))
			s.AppendValues(relation.Value(i%7), relation.Value(i%4))
			u.AppendValues(relation.Value(i%4), relation.Value(i%5))
		}
		return r, s, u
	}
	edges := []Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}
	r, s, u := mk()
	j, err := NewCyclic("tri", []*relation.Relation{r, s, u}, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.ResidualPart() == nil {
		t.Fatal("triangle join built without a residual")
	}
	j.PrewarmMembership()

	check := func() {
		t.Helper()
		fresh, err := NewCyclic("fresh", []*relation.Relation{cloneRel(r), cloneRel(s), cloneRel(u)}, edges, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.FreshenResidual()
		if !sameKeys(execKeys(j), execKeys(fresh)) {
			t.Fatal("cyclic results diverged from rebuilt join after reconcile")
		}
		if got, want := j.Count(), fresh.Count(); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
	}

	// Append to every base relation (residual member included): the
	// append-only incremental path.
	resBefore := j.ResidualPart().Rel()
	r.AppendValues(1, 2)
	s.AppendValues(2, 3)
	u.AppendValues(3, 1)
	check()
	if j.ResidualPart().Rel() != resBefore {
		// The incremental path extends the same materialized relation; a
		// swapped identity means the full-rebuild path ran instead.
		t.Log("note: reconcile took the full-rebuild path on an append-only delta")
	}

	// Delete from a residual member: must fall back to an exact full
	// re-materialization.
	for i := 0; i < u.Len(); i++ {
		if u.Live(i) {
			u.Delete(i)
			break
		}
	}
	check()

	// Interleave more appends after the rebuild.
	for i := 0; i < 6; i++ {
		s.AppendValues(relation.Value(i%7), relation.Value(i%4))
		check()
	}
}

// TestResidualViewPinning ensures a pinned ResView stays internally
// consistent while reconciles republish state concurrently.
func TestResidualViewPinning(t *testing.T) {
	r := relation.New("R", relation.NewSchema("A", "B"))
	s := relation.New("S", relation.NewSchema("B", "C"))
	u := relation.New("T", relation.NewSchema("C", "A"))
	for i := 0; i < 12; i++ {
		r.AppendValues(relation.Value(i%3), relation.Value(i%4))
		s.AppendValues(relation.Value(i%4), relation.Value(i%3))
		u.AppendValues(relation.Value(i%3), relation.Value(i%3))
	}
	edges := []Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}
	j, err := NewCyclic("tri", []*relation.Relation{r, s, u}, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := j.ResidualPart()
	j.PrewarmMembership()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reconciler: mutate members and freshen
		defer wg.Done()
		for i := 0; i < 200; i++ {
			u.AppendValues(relation.Value(i%3), relation.Value(i%3))
			j.FreshenResidual()
		}
		close(done)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make(relation.Tuple, j.OutputSchema().Len())
			for {
				select {
				case <-done:
					return
				default:
				}
				rv := res.View()
				rel := rv.Rel()
				for _, t2 := range rel.Tuples() {
					copy(out, t2[:min(len(t2), len(out))])
					break
				}
				// A pinned view's matches must index into the same pinned rel.
				for i := 0; i < rel.Len(); i++ {
					row := rel.Row(i)
					for k, p := range res.linkOut {
						if p < len(out) {
							out[p] = row[res.linkPos[k]]
						}
					}
					for _, m := range rv.Match(out) {
						if m >= rel.Len() {
							t.Errorf("pinned view match %d out of range %d", m, rel.Len())
							return
						}
					}
					break
				}
				_ = rv.MaxDegree()
			}
		}()
	}
	wg.Wait()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestMembershipBaseExactlySized: a base set holds exactly its
// relation's live rows and stores no values — its bytes are 8 per slot
// of the smallest power-of-two array (at least 16) at most
// three-quarters full, whatever the arity — after a fresh build and
// after the rebuild a burst past the delta budget forces. And a row
// holds its values' membership only while it is live: a tombstoned row
// with a live duplicate leaves the values a member, one without leaves
// them out.
func TestMembershipBaseExactlySized(t *testing.T) {
	a := relation.New("A", relation.NewSchema("x", "y"))
	b := relation.New("B", relation.NewSchema("y", "z"))
	for i := 0; i < 1500; i++ {
		a.AppendValues(relation.Value(i), relation.Value(i%60))
		b.AppendValues(relation.Value(i%60), relation.Value(i))
	}
	j, err := NewChain("chain", []*relation.Relation{a, b}, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if j.MembershipBytes() != 0 {
		t.Errorf("membership bytes %d before the first probe", j.MembershipBytes())
	}
	check := func(when string) {
		t.Helper()
		var bytes int64
		for k, tab := range j.ensureMembership().tabs {
			bytes += tab.base.Bytes()
			live := tab.rel.LiveLen()
			slots := 16
			for live*4 > slots*3 {
				slots <<= 1
			}
			if tab.delta != nil || tab.base.Len() != live || tab.base.Bytes() != int64(slots)*8 {
				t.Errorf("%s, table %d: base of %d rows in %d bytes over %d live rows, want %d bytes (delta %v)",
					when, k, tab.base.Len(), tab.base.Bytes(), live, slots*8, tab.delta != nil)
			}
		}
		if j.MembershipBytes() != bytes {
			t.Errorf("%s: MembershipBytes %d, the bases hold %d", when, j.MembershipBytes(), bytes)
		}
	}
	check("fresh build")
	for _, r := range []*relation.Relation{a, b} {
		big := make([]relation.Tuple, 700)
		for i := range big {
			big[i] = relation.Tuple{relation.Value(5000 + i), relation.Value(7000 + i)}
		}
		r.AppendRows(big)
		r.Delete(3)
	}
	check("rebuild past the delta budget")

	// Row 10 of A is (10, 10) and now has a live duplicate; row 11,
	// (11, 11), has none. B's (10, 10) and (11, 11) join both.
	a.AppendValues(10, 10)
	a.Delete(10)
	a.Delete(11)
	if c, _ := j.MemberCount(0, relation.Tuple{10, 10}); c != 1 || !j.Contains(relation.Tuple{10, 10, 10}) {
		t.Errorf("tombstoned (10, 10) with a live duplicate: count %d, contained %v; want 1, true", c, j.Contains(relation.Tuple{10, 10, 10}))
	}
	if c, _ := j.MemberCount(0, relation.Tuple{11, 11}); c != 0 || j.Contains(relation.Tuple{11, 11, 11}) {
		t.Errorf("tombstoned (11, 11) without a live duplicate: count %d, contained %v; want 0, false", c, j.Contains(relation.Tuple{11, 11, 11}))
	}
}

// memberGen is a membership generation as ensureMembership returned it,
// with each relation's live-row multiset at the versions it reflects.
type memberGen struct {
	m    *membershipTables
	want []map[string]int // per relation: TupleKey -> live rows
}

// liveCounts is the from-scratch membership count of a relation: its
// live rows, tallied by value.
func liveCounts(r *relation.Relation) map[string]int {
	out := make(map[string]int)
	for _, t := range r.Tuples() {
		out[relation.TupleKey(t)]++
	}
	return out
}

// mutateForMembers is one seeded step of TestMembershipGenerationsIsolated:
// a few rows appended to one relation (repeats included, so counts pass
// 1), or one row deleted. seen collects every tuple either relation held.
func mutateForMembers(rnd *rand.Rand, rels []*relation.Relation, seen []map[string]relation.Tuple) {
	k := rnd.Intn(len(rels))
	r := rels[k]
	if rnd.Intn(4) == 0 && r.Len() > 0 {
		r.Delete(rnd.Intn(r.Len()))
		return
	}
	rows := make([]relation.Tuple, 1+rnd.Intn(8))
	for i := range rows {
		rows[i] = relation.Tuple{relation.Value(rnd.Intn(400)), relation.Value(rnd.Intn(12))}
		seen[k][relation.TupleKey(rows[i])] = rows[i]
	}
	r.AppendRows(rows)
}

// membersFixture is a two-relation chain over y, every tuple it starts
// with recorded in seen.
func membersFixture(t *testing.T) (*Join, []*relation.Relation, []map[string]relation.Tuple) {
	t.Helper()
	a := relation.New("A", relation.NewSchema("x", "y"))
	b := relation.New("B", relation.NewSchema("y", "z"))
	rels := []*relation.Relation{a, b}
	seen := []map[string]relation.Tuple{{}, {}}
	for i := 0; i < 300; i++ {
		for k, tup := range []relation.Tuple{{relation.Value(i), relation.Value(i % 12)}, {relation.Value(i % 12), relation.Value(i % 40)}} {
			rels[k].AppendRows([]relation.Tuple{tup})
			seen[k][relation.TupleKey(tup)] = tup
		}
	}
	j, err := NewChain("chain", rels, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	j.PrewarmMembership()
	return j, rels, seen
}

// checkMemberGen compares every count and has g's tables give for the
// tuples in seen with the multiset g was captured over.
func checkMemberGen(t *testing.T, label string, g memberGen, seen []map[string]relation.Tuple) {
	for k, tab := range g.m.tabs {
		for key, tup := range seen[k] {
			got, want := tab.count(tup, nil), g.want[k][key]
			if got != want || tab.has(tup, nil) != (want > 0) {
				t.Errorf("%s, relation %d (version %d): count(%v) = %d, has %v, from scratch %d",
					label, k, tab.view.Version(), tup, got, tab.has(tup, nil), want)
				return
			}
		}
	}
}

// TestMembershipGenerationsIsolated keeps every membership generation a
// seeded append/delete script produces — delta extensions and folds —
// and after the last mutation re-checks each against the relations'
// contents at its own versions: a reconcile that wrote where an older
// generation reads (two successors extending one delta, say) shows here.
func TestMembershipGenerationsIsolated(t *testing.T) {
	j, rels, seen := membersFixture(t)
	rnd := rand.New(rand.NewSource(11))
	var kept []memberGen
	folds := 0
	for step := 0; step < 240; step++ {
		mutateForMembers(rnd, rels, seen)
		g := memberGen{m: j.ensureMembership()}
		for _, r := range rels {
			g.want = append(g.want, liveCounts(r))
		}
		if len(kept) > 0 && g.m.tabs[0].base != kept[len(kept)-1].m.tabs[0].base {
			folds++
		}
		kept = append(kept, g)
	}
	if folds < 2 {
		t.Fatalf("script folded relation A's delta %d times, want at least 2", folds)
	}
	for i, g := range kept {
		checkMemberGen(t, fmt.Sprintf("generation %d", i), g, seen)
	}
}

// FuzzMembership is TestMembershipGenerationsIsolated over fuzzed
// scripts: a seeded append/delete script over values from a small domain,
// so rows repeat, with every fingerprint ANDed with mask (0 leaves them
// whole; a small mask makes the row sets' tags collide and their probe
// chains long). Every generation is kept, and after the last step each
// one's count and has for every tuple either relation ever held must
// equal a from-scratch tally of that generation's relations.
func FuzzMembership(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(0x7))
	f.Add(int64(2), uint8(200), uint8(0))
	f.Add(int64(3), uint8(255), uint8(0x1))
	f.Fuzz(func(t *testing.T, seed int64, steps, mask uint8) {
		rnd := rand.New(rand.NewSource(seed))
		a := relation.New("A", relation.NewSchema("x", "y"))
		b := relation.New("B", relation.NewSchema("y", "z"))
		rels := []*relation.Relation{a, b}
		seen := []map[string]relation.Tuple{{}, {}}
		row := func() relation.Tuple {
			return relation.Tuple{relation.Value(rnd.Intn(12)), relation.Value(rnd.Intn(4))}
		}
		for k, r := range rels {
			r.SetHashDegradeForTest(uint64(mask))
			for i := 0; i < 40; i++ {
				tup := row()
				seen[k][relation.TupleKey(tup)] = tup
				r.AppendRows([]relation.Tuple{tup})
			}
		}
		j, err := NewChain("chain", rels, []string{"y"})
		if err != nil {
			t.Fatal(err)
		}
		var kept []memberGen
		for step := 0; step < int(steps); step++ {
			k := rnd.Intn(len(rels))
			if rnd.Intn(3) == 0 {
				rels[k].Delete(rnd.Intn(rels[k].Len()))
			} else {
				rows := make([]relation.Tuple, 1+rnd.Intn(6))
				for i := range rows {
					rows[i] = row()
					seen[k][relation.TupleKey(rows[i])] = rows[i]
				}
				rels[k].AppendRows(rows)
			}
			g := memberGen{m: j.ensureMembership()}
			for _, r := range rels {
				g.want = append(g.want, liveCounts(r))
			}
			kept = append(kept, g)
		}
		for i, g := range kept {
			checkMemberGen(t, fmt.Sprintf("generation %d", i), g, seen)
		}
	})
}

// TestOldMemberGenerationsUnderReconcile: readers keep probing every
// membership generation published so far, each against the counts it was
// published with, while a writer mutates and reconciles the next ones.
// Each reconcile gets a sibling too — reconciled from the same
// predecessor after one more append to the relation it mutated — which
// must equal a from-scratch tally and must leave the first successor as
// it was (run under -race: a reconcile that writes where an older
// generation reads, or two successors extending one delta in place, is a
// race or a mismatch).
func TestOldMemberGenerationsUnderReconcile(t *testing.T) {
	j, rels, seen := membersFixture(t)
	// The universe is fixed up front so readers can range over it while
	// the writer appends: the writer draws only from it.
	var universe [][]relation.Tuple
	for k := range seen {
		var tups []relation.Tuple
		for _, tup := range seen[k] {
			tups = append(tups, tup)
		}
		universe = append(universe, tups)
	}
	type pinned struct {
		m    *membershipTables
		want [][]int // per relation, per universe tuple
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
				for k := 0; n > 0 && k < len(universe); k++ {
					for u, tup := range universe[k] {
						if got := g.m.tabs[k].count(tup, nil); got != g.want[k][u] {
							t.Errorf("relation %d: count(%v) = %d, published as %d", k, tup, got, g.want[k][u])
							return
						}
					}
				}
				if n > 0 {
					passes.Add(1)
				}
			}
		}(w)
	}
	rnd := rand.New(rand.NewSource(5))
	appendRows := func(k int) {
		rows := make([]relation.Tuple, 1+rnd.Intn(8))
		for i := range rows {
			rows[i] = universe[k][rnd.Intn(len(universe[k]))]
		}
		rels[k].AppendRows(rows)
	}
	var prev *membershipTables
	siblings := 0 // steps whose first successor and sibling both extended one delta
	for step := 0; step < 150; step++ {
		k := rnd.Intn(len(rels))
		if rnd.Intn(4) == 0 {
			rels[k].Delete(rnd.Intn(rels[k].Len()))
		} else {
			appendRows(k)
		}
		p := pinned{m: j.ensureMembership()}
		for k, r := range rels {
			counts := liveCounts(r)
			row := make([]int, len(universe[k]))
			for u, tup := range universe[k] {
				row[u] = counts[relation.TupleKey(tup)]
			}
			p.want = append(p.want, row)
		}
		mu.Lock()
		gens = append(gens, p)
		mu.Unlock()
		if prev != nil {
			appendRows(k)
			sibling := memberGen{m: j.buildMembership(prev)}
			for _, r := range rels {
				sibling.want = append(sibling.want, liveCounts(r))
			}
			checkMemberGen(t, fmt.Sprintf("step %d, the second successor of one generation", step), sibling, seen)
			for k := range universe {
				for u, tup := range universe[k] {
					if got := p.m.tabs[k].count(tup, nil); got != p.want[k][u] {
						t.Fatalf("step %d: the second successor of one generation rewrote the first's relation %d: count(%v) = %d, published as %d",
							step, k, tup, got, p.want[k][u])
					}
				}
			}
			if d := prev.tabs[k].delta; d != nil && p.m.tabs[k].delta != d && sibling.m.tabs[k].base == prev.tabs[k].base {
				siblings++
			}
		}
		prev = p.m
		// Let the readers probe old generations while the next is built.
		for want, spin := passes.Load()+1, 0; passes.Load() < want && spin < 1000; spin++ {
			runtime.Gosched()
		}
	}
	close(done)
	readers.Wait()
	if siblings < 30 {
		t.Errorf("only %d of 150 steps extended one delta twice: the script no longer exercises siblings", siblings)
	}
}
