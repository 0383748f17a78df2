package joinsample

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// refSeg is the reference shape of one weight segment: a private
// row list and running weight sum per distinct join value, the per-entry
// construction the flat table replaced.
type refSeg struct {
	rows []int32
	cum  []int64
}

// flatSegment returns entry e's segment as flat rows and running own
// sums — a large segment's blocks one after another, their sums rebased
// on the directories — its scale, and the join.LargeSegment holding it,
// if any.
func flatSegment(t *join.WeightTable, e int) ([]int32, []int64, int64, *join.LargeSegment) {
	rows, cum, scale, seg := t.Segment(e)
	if seg == nil {
		return rows, cum, scale, nil
	}
	for g, grp := range seg.Groups {
		var base int64
		if g > 0 {
			base = seg.Sums[g-1]
		}
		for b, blk := range grp.Blocks {
			rows = append(rows, blk.Rows...)
			for _, c := range blk.Cum {
				cum = append(cum, base+c)
			}
			base = grp.Sums[b]
			if g > 0 {
				base += seg.Sums[g-1]
			}
		}
	}
	return rows, cum, scale, seg
}

// scaledSegment is entry e's segment as the reference holds it: its rows
// with their running sums times its scale, and no rows at scale 0.
func scaledSegment(t *join.WeightTable, e int) ([]int32, []int64) {
	rows, cum, scale, _ := flatSegment(t, e)
	if scale == 0 {
		return nil, nil
	}
	full := make([]int64, len(cum))
	for i, c := range cum {
		full[i] = c * scale
	}
	return rows, full
}

// isLeaf reports whether node k of j is a leaf: not the root, without
// children. It keeps no weight table; its index is its segments.
func isLeaf(j *join.Join, k int) bool { return k > 0 && len(j.Nodes()[k].Children) == 0 }

// isKeyed reports whether node k of j joins its parent, a node other than
// the root, on the parent's own join attribute.
func isKeyed(j *join.Join, k int) bool {
	nodes := j.Nodes()
	p := nodes[k].Parent
	return p > 0 && nodes[k].ParentAttrPos == nodes[p].AttrPos
}

// checkLeaf pins leaf k of w to its reference segments, one per entry of
// its index: no weight table, the index's rows for the entry's value
// are the reference's, and the node's total for the value is their
// number, the value's degree.
func checkLeaf(t testing.TB, state string, w *join.Weights, k int, want []refSeg) {
	t.Helper()
	if w.Nodes[k].Off != nil {
		t.Fatalf("%s node %d: a leaf holds a weight table", state, k)
	}
	for ent, ref := range want {
		v := w.Idx[k].ValueAt(ent)
		rows := w.Idx[k].Rows(v)
		if len(rows) != len(ref.rows) || w.Total(k, v) != int64(len(rows)) || w.Idx[k].Degree(v) != len(rows) {
			t.Fatalf("%s leaf %d value %d: rows %v total %d, reference rows %v", state, k, v, rows, w.Total(k, v), ref.rows)
		}
		for i, r := range rows {
			if int32(r) != ref.rows[i] || ref.cum[i] != int64(i+1) {
				t.Fatalf("%s leaf %d value %d: rows %v, reference rows %v cum %v", state, k, v, rows, ref.rows, ref.cum)
			}
		}
	}
}

// execute is every result of j, cloned.
func execute(j *join.Join) []relation.Tuple {
	var out []relation.Tuple
	j.Enumerate(func(t relation.Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// refSegment keeps the positive-weight rows of one entry, in order.
func refSegment(rows []int, w []int64) refSeg {
	var s refSeg
	var cum int64
	for _, r := range rows {
		if w[r] > 0 {
			cum += w[r]
			s.rows = append(s.rows, int32(r))
			s.cum = append(s.cum, cum)
		}
	}
	return s
}

// refEW is the straightforward EW: per-row weights by the textbook
// recurrence over Relation.Matches, one refSeg per index entry, and a
// draw that spends the RNG exactly like EW.SampleManyInto (one bounded
// draw per node, and a binary search of the segment's running sums).
type refEW struct {
	j    *join.Join
	idx  []*relation.Index
	segs [][]refSeg // per node, per entry; the root has one
}

func newRefEW(j *join.Join) *refEW {
	nodes := j.Nodes()
	w := make([][]int64, len(nodes))
	for k := len(nodes) - 1; k >= 0; k-- {
		n := &nodes[k]
		w[k] = make([]int64, n.Rel.Len())
		for i := range w[k] {
			if !n.Rel.Live(i) {
				continue
			}
			w[k][i] = 1
			for _, c := range n.Children {
				var sum int64
				for _, r := range nodes[c].Rel.Matches(nodes[c].AttrPos, n.Rel.Value(i, nodes[c].ParentAttrPos)) {
					sum += w[c][r]
				}
				w[k][i] *= sum
			}
		}
	}
	e := &refEW{j: j, idx: make([]*relation.Index, len(nodes)), segs: make([][]refSeg, len(nodes))}
	all := make([]int, nodes[0].Rel.Len())
	for i := range all {
		all[i] = i
	}
	e.segs[0] = []refSeg{refSegment(all, w[0])}
	for k := 1; k < len(nodes); k++ {
		e.idx[k] = nodes[k].Rel.Index(nodes[k].AttrPos)
		for ent := 0; ent < e.idx[k].NumEntries(); ent++ {
			e.segs[k] = append(e.segs[k], refSegment(e.idx[k].Rows(e.idx[k].ValueAt(ent)), w[k]))
		}
	}
	return e
}

func (e *refEW) count() int64 {
	if s := e.segs[0][0]; len(s.cum) > 0 {
		return s.cum[len(s.cum)-1]
	}
	return 0
}

func (e *refEW) sample(out relation.Tuple, rowOf []int, g *rng.RNG) {
	for k, n := range e.j.Nodes() {
		ent := 0
		if k > 0 {
			ent, _ = e.idx[k].EntryOf(e.j.ParentValue(k, rowOf[n.Parent]))
		}
		s := e.segs[k][ent]
		x := int64(g.Uint64n(uint64(s.cum[len(s.cum)-1])))
		i, _ := slices.BinarySearch(s.cum, x+1)
		rowOf[k] = int(s.rows[i])
		e.j.FillOutput(k, rowOf[k], out)
	}
}

// randomTree builds a random join tree of 2–5 relations of 20–80 rows
// over join values below domain (so fan-outs, dangling rows and missing
// values all occur; a domain of 2 or 3 makes segments of join.LargeRows
// rows and more beside smaller ones). An edge below a non-root node
// joins, one time in two, on that node's own join attribute — a keyed
// child, whose total scales the node's segments (join.WeightTable), as
// customer does supplier's in UQ1 — and otherwise on an attribute of
// its own; the last node, a leaf, is such a keyed child whenever its
// parent is not the root. Node k's schema is its own join attribute,
// its non-keyed children's, and a payload column.
func randomTree(t *testing.T, r *rand.Rand, domain int) (*join.Join, []*relation.Relation) {
	t.Helper()
	n := 2 + r.Intn(4)
	parent := make([]int, n)
	attrs := make([]string, n)
	schemas := make([][]string, n)
	parent[0] = -1
	for k := 1; k < n; k++ {
		parent[k] = r.Intn(k)
		if p := parent[k]; p > 0 && (k == n-1 || r.Intn(2) == 0) {
			attrs[k] = attrs[p]
		} else {
			attrs[k] = fmt.Sprintf("J%d", k)
			schemas[p] = append(schemas[p], attrs[k])
		}
		schemas[k] = append(schemas[k], attrs[k])
	}
	rels := make([]*relation.Relation, n)
	for k := range rels {
		schemas[k] = append(schemas[k], fmt.Sprintf("P%d", k))
		rels[k] = relation.New(fmt.Sprintf("R%d", k), relation.NewSchema(schemas[k]...))
		appendRandom(rels[k], r, 20+r.Intn(60), domain)
	}
	j, err := join.NewTree("T", rels, parent, attrs)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return j, rels
}

// appendRandom appends n rows with join values below domain and a
// unique payload.
func appendRandom(rel *relation.Relation, r *rand.Rand, n, domain int) {
	rows := make([]relation.Tuple, n)
	for i := range rows {
		row := make(relation.Tuple, rel.Arity())
		for a := range row {
			row[a] = relation.Value(r.Intn(domain))
		}
		row[len(row)-1] = relation.Value(rel.Len() + i)
		rows[i] = row
	}
	rel.AppendRows(rows)
}

// segCounts counts the segments with rows a check met: small, large,
// scaled (a scale other than 0 and 1) and of scale 0; and the leaves it
// met that are keyed children.
type segCounts struct{ small, large, scaled, zero, keyedLeaves int }

// checkAgainstReference pins a freshly built EW to the reference:
// same segments (rows, order, running sums: a segment's own sums times
// its scale) per entry of every node, each in the directory of large
// segments exactly when it has join.LargeRows rows or more — a leaf's
// in its index (checkLeaf) — same count, same tuples for a seed. It
// returns what segments with rows it met.
func checkAgainstReference(t *testing.T, state string, j *join.Join) (n segCounts) {
	t.Helper()
	ew, ref := NewEW(j), newRefEW(j)
	if ew.ExactCount() != ref.count() || ew.ExactCount() != j.Count() {
		t.Fatalf("%s: ExactCount %d, reference %d, Count %d", state, ew.ExactCount(), ref.count(), j.Count())
	}
	for k := range ref.segs {
		if isLeaf(j, k) {
			checkLeaf(t, state, ew.w, k, ref.segs[k])
			if isKeyed(j, k) {
				n.keyedLeaves++
			}
			continue
		}
		tb := &ew.w.Nodes[k]
		if len(tb.Off) != len(ref.segs[k])+1 {
			t.Fatalf("%s node %d: %d segments, reference %d", state, k, len(tb.Off)-1, len(ref.segs[k]))
		}
		for ent, want := range ref.segs[k] {
			rows, cum := scaledSegment(tb, ent)
			if fmt.Sprint(rows, cum) != fmt.Sprint(want.rows, want.cum) {
				t.Fatalf("%s node %d entry %d: rows %v scaled cum %v, reference rows %v cum %v",
					state, k, ent, rows, cum, want.rows, want.cum)
			}
			own, _, scale, seg := flatSegment(tb, ent)
			if (seg != nil) != (len(own) >= join.LargeRows) {
				t.Fatalf("%s node %d entry %d: %d rows, large segment %v", state, k, ent, len(own), seg != nil)
			}
			switch {
			case seg != nil:
				n.large++
			case len(own) > 0:
				n.small++
			}
			switch {
			case len(own) == 0, scale == 1:
			case scale == 0:
				n.zero++
			default:
				n.scaled++
			}
		}
		if len(tb.Rows) != cap(tb.Rows) || len(tb.Cum) != cap(tb.Cum) {
			t.Errorf("%s node %d: table not sized exactly (rows %d/%d)", state, k, len(tb.Rows), cap(tb.Rows))
		}
	}
	if ref.count() == 0 {
		return n
	}
	out, rowOf := mkBatch(j, 64)
	if filled, tries := ew.SampleManyInto(out, rowOf, 64, rng.New(77)); filled != 64 || tries != 64 {
		t.Fatalf("%s: filled %d of 64 in %d tries", state, filled, tries)
	}
	g, want := rng.New(77), make(relation.Tuple, len(out[0]))
	for i := range out {
		ref.sample(want, rowOf, g)
		if !out[i].Equal(want) {
			t.Fatalf("%s draw %d: %v, reference %v", state, i, out[i], want)
		}
	}
	return n
}

// TestFlatTableMatchesReference is the property test of the weight
// table over random trees and the three index shapes a live relation
// goes through: a pure CSR, an overlaid one (appends and deletes, base
// entries emptied, values first seen through the overlay, dangling and
// tombstoned rows) and a compacted one. Half the trees draw their join
// values from a domain of 2, so that both searches — bisection below
// join.LargeRows, a proportional guess at and above — meet the
// reference, and keyed children give segments scales other than 1,
// 0 among them. Each tree is then patched through a random script, and
// every eighth through groupScript too, whose root grows to a segment of
// several groups, splits a group and empties one.
func TestFlatTableMatchesReference(t *testing.T) {
	var all segCounts
	var groups groupCounts
	check := func(state string, j *join.Join) {
		n := checkAgainstReference(t, state, j)
		all.small, all.large, all.scaled, all.zero = all.small+n.small, all.large+n.large, all.scaled+n.scaled, all.zero+n.zero
		all.keyedLeaves += n.keyedLeaves
	}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		j, rels := randomTree(t, r, []int{12, 2}[seed%2])
		check("pure CSR", j)

		// A few mutations per relation stay inside the overlay budget
		// (64 touched values): new values past the domain, deletes, and
		// one base value emptied outright.
		for _, rel := range rels {
			appendRandom(rel, r, 1+r.Intn(6), 16)
			for d := r.Intn(5); d > 0; d-- {
				rel.Delete(r.Intn(rel.Len()))
			}
			for _, row := range rel.Matches(0, rel.Value(0, 0)) {
				rel.Delete(row)
			}
		}
		check("overlay", j)

		// Past the budget the catch-up rebuilds a pure CSR over storage
		// that now holds tombstones.
		for _, rel := range rels {
			appendRandom(rel, r, 200, 16)
		}
		check("compacted", j)

		// From here on the tables are patched, not built: random bursts
		// across the relations, every fourth op a patch (12 in a row of
		// generations, plus whatever the random bytes add).
		script := make([]byte, 48)
		r.Read(script)
		for i := 3; i < len(script); i += 4 {
			script[i] = opPatch << 3
		}
		groups.add(patchScript(t, seed, j, rels, script))
		if seed%8 == 0 {
			groups.add(patchScript(t, seed, j, rels, groupScript))
		}
	}
	if groups.multi == 0 || groups.split == 0 || groups.emptied == 0 {
		t.Errorf("patches left %d segments of two groups or more, split %d groups and emptied %d: a group path went unchecked", groups.multi, groups.split, groups.emptied)
	}
	if all.small == 0 || all.large == 0 {
		t.Errorf("the fixtures held %d small and %d large segments: a search went unchecked", all.small, all.large)
	}
	if all.scaled == 0 || all.zero == 0 || all.keyedLeaves == 0 {
		t.Errorf("the fixtures held %d scaled segments, %d of scale 0 and %d keyed leaves: keyed children went unchecked", all.scaled, all.zero, all.keyedLeaves)
	}
	t.Logf("segments with rows: %+v; patched segments' groups: %+v", all, groups)
}

// Script op kinds of patchScript, in the high bits of a script byte (the
// low three pick the relation).
const (
	opAppend   = iota // 1-4 rows, values inside and just past the domain
	opAppend2         // (appends are the common case)
	opDelete          // one random row
	opEmpty           // every row of one join value
	opBurst           // 200 rows: past the index's overlay budget, so it compacts
	opPatch           // patch the samplers and check them
	opPatch2          // patch a sibling of the next patch from the same samplers, check and keep it
	opNewValue        // rows under a value no index has seen
	opGrow            // the root, while under 2·groupRows rows: groupRows copies of its rows, so its segment passes 2·join.GroupBlocks blocks
	opCut             // the root: the older two thirds of its live rows deleted
	opKinds
)

// groupRows is how many rows opGrow appends: more than 2·join.GroupBlocks
// blocks' worth, so the root's segment spans two groups or more and the
// group the rows land in splits.
const groupRows = 2*join.GroupBlocks*join.BlockRows + 100

// groupScript grows the root to two groups or more, then splits its last
// group, then empties its first ones, patching after each step.
var groupScript = []byte{opGrow << 3, opPatch << 3, opGrow << 3, opPatch << 3, opCut << 3, opPatch << 3}

// groupCounts counts what patches did to the groups of the large
// segments they touched: segments left of two groups or more, segments
// that gained groups (a group split) and segments that lost some (a
// group emptied).
type groupCounts struct{ multi, split, emptied int }

func (c *groupCounts) add(o groupCounts) {
	c.multi, c.split, c.emptied = c.multi+o.multi, c.split+o.split, c.emptied+o.emptied
}

// patched counts what the patch from prev to ew did to the groups of
// the large segments it touched.
func (c *groupCounts) patched(prev, ew *EW) {
	p := ew.Patch()
	if p.Rebuilt {
		return
	}
	for k, touched := range p.Touched {
		for _, e := range touched {
			_, _, _, now := ew.w.Nodes[k].Segment(int(e))
			_, _, _, was := prev.w.Nodes[k].Segment(int(e))
			if now == nil {
				continue
			}
			if len(now.Groups) > 1 {
				c.multi++
			}
			switch {
			case was == nil:
			case len(now.Groups) > len(was.Groups):
				c.split++
			case len(now.Groups) < len(was.Groups):
				c.emptied++
			}
		}
	}
}

// patchScript drives a chain of EW samplers, each patched from its
// predecessor, through the mutations the script spells, and after every
// patch pins the patched sampler to a cold build over the same data: same
// entries, Segment, Total and Count at every node, same 64 seeded tuples,
// and — for the large segments the patch did not recompute — the very
// segments the predecessor held. Once the script is over, every
// generation is pinned again to the tables it had then. It returns what
// the patches did to the groups of large segments.
func patchScript(t testing.TB, seed int64, j *join.Join, rels []*relation.Relation, script []byte) (groups groupCounts) {
	t.Helper()
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	chain := NewEW(j)
	fresh := relation.Value(1000)
	// Every generation is kept with its tables as checkPatched found them
	// equal to a cold build's: a later patch that wrote into storage an
	// earlier generation still holds shows at the end.
	type generation struct {
		state string
		ew    *EW
		want  []string
	}
	var kept []generation
	patch := func(step int) {
		state := fmt.Sprintf("seed %d step %d", seed, step)
		prev := chain
		chain = checkPatched(t, state, j, chain)
		groups.patched(prev, chain)
		kept = append(kept, generation{state, chain, tableDump(chain)})
	}
	// A sibling is a successor the chain does not continue from: the next
	// patch is a second successor of the same sampler, which must neither
	// extend its overlay where the sibling did nor disturb the sibling.
	sibling := func(step int) {
		state := fmt.Sprintf("seed %d step %d sibling", seed, step)
		sib := checkPatched(t, state, j, chain)
		groups.patched(chain, sib)
		kept = append(kept, generation{state, sib, tableDump(sib)})
	}
	for step, b := range script {
		rel := rels[int(b&7)%len(rels)]
		switch int(b>>3) % opKinds {
		case opAppend, opAppend2:
			appendRandom(rel, r, 1+r.Intn(4), 16)
		case opDelete:
			if rel.Len() > 0 {
				rel.Delete(r.Intn(rel.Len()))
			}
		case opEmpty:
			if rel.Len() > 0 {
				for _, row := range rel.Matches(0, rel.Value(r.Intn(rel.Len()), 0)) {
					rel.Delete(row)
				}
			}
		case opBurst:
			appendRandom(rel, r, 200, 16)
		case opGrow: // up to a few groups: larger roots only slow the checks
			if root := rels[0]; root.Len() > 0 && root.Len() < 2*groupRows {
				rows := make([]relation.Tuple, groupRows)
				for i := range rows {
					rows[i] = root.Row(r.Intn(root.Len()))
					rows[i][len(rows[i])-1] = relation.Value(root.Len() + i)
				}
				root.AppendRows(rows)
			}
		case opCut:
			root := rels[0]
			var live []int
			for i := 0; i < root.Len(); i++ {
				if root.Live(i) {
					live = append(live, i)
				}
			}
			for _, row := range live[:2*len(live)/3] {
				root.Delete(row)
			}
		case opNewValue:
			row := make(relation.Tuple, rel.Arity())
			for a := range row {
				row[a] = fresh
			}
			fresh++
			rel.AppendRows([]relation.Tuple{row, row.Clone()})
		case opPatch2:
			sibling(step)
		default:
			patch(step)
		}
	}
	patch(len(script))
	for _, g := range kept {
		if got := tableDump(g.ew); !slices.Equal(got, g.want) {
			t.Fatalf("%s: tables changed after later patches:\n%v\nwere\n%v", g.state, got, g.want)
		}
	}
	return groups
}

// tableDump renders every segment of every node of ew's tables — rows,
// running sums, scale and total, entry by entry, a leaf's rows those of
// its index — as plain data, in the form fmt.Sprint gives them but
// without its reflection: scripts dump every generation they keep, roots
// of thousands of rows included.
func tableDump(ew *EW) []string {
	var out []string
	for k := range ew.w.Nodes {
		entries := 1
		if k > 0 {
			entries = ew.w.Idx[k].NumEntries()
		}
		for ent := 0; ent < entries; ent++ {
			rows, cum, scale, _ := flatSegment(&ew.w.Nodes[k], ent)
			total := ew.w.Nodes[k].Total(ent)
			if isLeaf(ew.j, k) {
				v := ew.w.Idx[k].ValueAt(ent)
				for _, r := range ew.w.Idx[k].Rows(v) {
					rows = append(rows, int32(r))
				}
				total = ew.w.Total(k, v)
			}
			b := strconv.AppendInt(nil, int64(k), 10)
			b = append(strconv.AppendInt(append(b, ' '), int64(ent), 10), " ["...)
			for i, r := range rows {
				if i > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendInt(b, int64(r), 10)
			}
			b = append(b, "] ["...)
			for i, c := range cum {
				if i > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendInt(b, c, 10)
			}
			b = strconv.AppendInt(append(b, "] "...), scale, 10)
			out = append(out, string(strconv.AppendInt(append(b, ' '), total, 10)))
		}
	}
	return out
}

// checkPatched patches prev into the sampler of j's current data and
// compares it with a cold build — at a leaf, that neither holds a table
// and the totals are the index's degrees; it returns the patched
// sampler, for the next step to patch from.
func checkPatched(t testing.TB, state string, j *join.Join, prev *EW) *EW {
	t.Helper()
	ew, cold := newEWFrom(t, j, prev), NewEW(j)
	if !equalVersions(ew.w.Vers, cold.w.Vers) {
		t.Fatalf("%s: patched versions %v, cold %v", state, ew.w.Vers, cold.w.Vers)
	}
	if ew.ExactCount() != cold.ExactCount() {
		t.Fatalf("%s: patched count %d, cold %d", state, ew.ExactCount(), cold.ExactCount())
	}
	p := ew.Patch()
	for k := range cold.w.Nodes {
		entries := 1
		if k > 0 {
			if ew.w.Idx[k] != cold.w.Idx[k] {
				t.Fatalf("%s node %d: patched and cold tables read different indexes", state, k)
			}
			entries = cold.w.Idx[k].NumEntries()
		}
		if isLeaf(j, k) {
			if ew.w.Nodes[k].Off != nil || cold.w.Nodes[k].Off != nil || !p.Rebuilt && len(p.Touched[k]) > 0 {
				t.Fatalf("%s leaf %d: a weight table, or touched entries (patch %+v)", state, k, p)
			}
			for ent := 0; ent < entries; ent++ {
				v := cold.w.Idx[k].ValueAt(ent)
				if got, want := ew.w.Total(k, v), int64(cold.w.Idx[k].Degree(v)); got != want || cold.w.Total(k, v) != want {
					t.Fatalf("%s leaf %d value %d: patched total %d, cold %d, degree %d", state, k, v, got, cold.w.Total(k, v), want)
				}
			}
			continue
		}
		for ent := 0; ent < entries; ent++ {
			rows, cum, scale, now := flatSegment(&ew.w.Nodes[k], ent)
			wantRows, wantCum, wantScale, _ := flatSegment(&cold.w.Nodes[k], ent)
			if len(rows) == 0 {
				scale, wantScale = 0, 0 // an empty segment's scale is never read
			}
			if !slices.Equal(rows, wantRows) || !slices.Equal(cum, wantCum) || scale != wantScale {
				t.Fatalf("%s node %d entry %d: patched rows %v cum %v scale %d, cold rows %v cum %v scale %d (patch %+v)",
					state, k, ent, rows, cum, scale, wantRows, wantCum, wantScale, p)
			}
			if got, want := ew.w.Nodes[k].Total(ent), cold.w.Nodes[k].Total(ent); got != want {
				t.Fatalf("%s node %d entry %d: patched total %d, cold %d", state, k, ent, got, want)
			}
			if (now != nil) != (len(rows) >= join.LargeRows) {
				t.Fatalf("%s node %d entry %d: %d rows, large segment %v", state, k, ent, len(rows), now != nil)
			}
			if p.Rebuilt || now == nil {
				continue
			}
			// An untouched large segment is the predecessor's; prev knows
			// the entry, or it would be touched.
			if _, hit := slices.BinarySearch(p.Touched[k], int32(ent)); hit {
				continue
			}
			if _, _, _, was := prev.w.Nodes[k].Segment(ent); was != now {
				t.Fatalf("%s node %d entry %d: untouched large segment %p is not the predecessor's %p", state, k, ent, now, was)
			}
		}
	}
	if cold.ExactCount() == 0 {
		return ew
	}
	out, rowOf := mkBatch(j, 64)
	want, wantRowOf := mkBatch(j, 64)
	ew.SampleManyInto(out, rowOf, 64, rng.New(77))
	cold.SampleManyInto(want, wantRowOf, 64, rng.New(77))
	for i := range out {
		if !out[i].Equal(want[i]) {
			t.Fatalf("%s draw %d: patched %v, cold %v", state, i, out[i], want[i])
		}
	}
	return ew
}

// newEWFrom is NewEWFrom over fixtures whose weights fit an int64.
func newEWFrom(t testing.TB, j *join.Join, prev *EW) *EW {
	t.Helper()
	ew, err := NewEWFrom(j, prev)
	if err != nil {
		t.Fatal(err)
	}
	return ew
}

// FuzzWeightPatch is patchScript over fuzzer-chosen trees and mutation
// scripts: whatever the order of appends, deletes, emptied and new
// values, compactions and patches, a patched sampler equals a cold one —
// keyed children's rescales, to scale 0 and back, and roots of several
// groups that split and empty groups (groupScript), included.
func FuzzWeightPatch(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		script := make([]byte, 48)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(seed, script)
	}
	f.Add(int64(9), []byte{opBurst << 3, opPatch << 3, opEmpty<<3 | 1, opNewValue<<3 | 1, opPatch << 3, opDelete << 3})
	// Seed 7 builds a tree with a keyed child: empty, bring back and
	// delete values of every relation, patching after each.
	var keyed []byte
	for rel := byte(0); rel < 4; rel++ {
		keyed = append(keyed, opEmpty<<3|rel, opPatch<<3, opNewValue<<3|rel, opPatch<<3, opDelete<<3|rel, opAppend<<3|rel, opPatch<<3)
	}
	f.Add(int64(7), keyed)
	f.Add(int64(8), groupScript)
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		j, rels := randomTree(t, rand.New(rand.NewSource(seed)), 12)
		patchScript(t, seed, j, rels, script)
	})
}

// TestNewEWAllocsIndependentOfRows: building an EW sampler costs a
// small constant number of allocations per join node, whatever the
// relations hold — not one object per distinct join value.
func TestNewEWAllocsIndependentOfRows(t *testing.T) {
	build := func(rows int) (*join.Join, float64) {
		r1 := relation.New("R1", relation.NewSchema("A", "X"))
		r2 := relation.New("R2", relation.NewSchema("A", "B"))
		r3 := relation.New("R3", relation.NewSchema("B", "Y"))
		for i := 0; i < rows; i++ {
			r1.AppendValues(relation.Value(i), relation.Value(i))
			r2.AppendValues(relation.Value(i), relation.Value(i/2))
			r3.AppendValues(relation.Value(i/2), relation.Value(i))
		}
		j, err := join.NewChain("J", []*relation.Relation{r1, r2, r3}, []string{"A", "B"})
		if err != nil {
			t.Fatal(err)
		}
		return j, testing.AllocsPerRun(5, func() { NewEW(j) })
	}
	j, small := build(1000)
	_, large := build(100000)
	if small != large {
		t.Errorf("NewEW allocations grow with the data: %v at 1k rows, %v at 100k", small, large)
	}
	if limit := float64(8 * (len(j.Nodes()) + 1)); small > limit {
		t.Errorf("NewEW made %v allocations over %d nodes, want <= %v", small, len(j.Nodes()), limit)
	}
}

// TestEWBuildRacesMutations is the regression test for the EW build
// reading a relation through unrelated atomic loads (run under -race):
// while goroutines append to and delete from every relation of a join,
// NewEW must never index past a snapshot it sized a weight slice from,
// every sampler built mid-flight must keep drawing, and a build after
// the writers stop must equal the reference over the settled data.
func TestEWBuildRacesMutations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	j, rels := randomTree(t, r, 12)
	var writers sync.WaitGroup
	for i, rel := range rels {
		writers.Add(1)
		go func(rel *relation.Relation, r *rand.Rand) {
			defer writers.Done()
			for n := 0; n < 400; n++ {
				appendRandom(rel, r, 1+r.Intn(4), 16)
				if n%3 == 0 {
					rel.Delete(r.Intn(rel.Len()))
				}
			}
		}(rel, rand.New(rand.NewSource(int64(100+i))))
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	out, rowOf := mkBatch(j, 8)
	g := rng.New(9)
	// One chain builds cold every time, the other patches each sampler
	// from the last — whose tables a racing writer may have left a
	// mixture of versions, which the next patch has to repair.
	patched := NewEW(j)
	for building := true; building; {
		select {
		case <-done:
			building = false
		default:
		}
		patched = newEWFrom(t, j, patched)
		for _, ew := range []*EW{NewEW(j), patched} {
			if filled, _ := ew.SampleManyInto(out, rowOf, 8, g); ew.ExactCount() > 0 && filled != 8 {
				t.Fatalf("mid-flight sampler filled %d of 8", filled)
			}
		}
	}
	if ew := NewEW(j); !equalVersions(ew.w.Vers, j.StateVersions()) {
		t.Fatal("settled sampler's versions are behind the join's")
	}
	checkAgainstReference(t, "settled", j)
	checkPatched(t, "settled", j, patched)
}
