package join

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sampleunion/internal/relation"
)

// Edge is an equi-join condition between two relations on a shared
// attribute name, used to describe (possibly cyclic) join graphs.
type Edge struct {
	A, B int    // relation indexes
	Attr string // shared attribute name
}

// Residual is the removed part of a cyclic join (§8.2): the relations
// taken out to make the remainder (the skeleton) acyclic, materialized
// into a single relation. It joins back to the skeleton on every
// attribute shared with skeleton relations (the link attributes).
//
// The materialization and its link index live in an immutable resState
// behind an atomic pointer: samplers pin one View per probe, so
// reconciliation (after member base relations mutate) can publish a new
// state while draws keep reading the old one. When member mutations are
// append-only and small, reconcile extends the materialization with a
// delta join instead of re-executing the full residual join.
type Residual struct {
	LinkAttrs []string // attributes shared with the skeleton
	linkPos   []int    // positions of LinkAttrs in the residual schema

	state atomic.Pointer[resState]

	// src are the member base relations the residual was materialized
	// from; srcVers/srcLens are the log positions and physical row
	// counts the current state reflects (nil/unused when untracked,
	// e.g. pushdown rebuilds over already-derived data). Guarded by the
	// owning join's memMu.
	src     []*relation.Relation
	srcVers []uint64
	srcLens []int

	emit    [][2]int // (rel attr pos, output pos) for new output columns
	proj    []int    // output position of each residual attribute
	linkOut []int    // output positions of LinkAttrs
}

// resState is one immutable materialization + link index: group g's
// residual rows at rows[starts[g]:starts[g+1]], keyed by composite link
// value through linkKeys.
type resState struct {
	rel      *relation.Relation
	linkKeys *relation.KeyCounter // composite link key -> dense group id
	starts   []int32
	rows     []int
	maxDeg   int // M(S_R): max rows per link key
}

// ResView pins one residual state for a sequence of dependent reads
// (Match, then MaxDegree and FillInto on the matched rows). Samplers
// must hold a single View across those calls so a concurrent refresh
// cannot swap the materialization out from under the matched row ids.
type ResView struct {
	r  *Residual
	st *resState
}

// View pins the current state: the zero ResView for a nil Residual, an
// acyclic join's.
func (r *Residual) View() ResView {
	if r == nil {
		return ResView{}
	}
	return ResView{r: r, st: r.state.Load()}
}

// Rel returns the pinned materialized relation.
func (v ResView) Rel() *relation.Relation { return v.st.rel }

// MaxDegree returns the pinned M(S_R).
func (v ResView) MaxDegree() int { return v.st.maxDeg }

// Match returns the residual row ids consistent with the partial output
// tuple out (which must already have all link attributes filled). The
// link key is probed through a projection access path — no tuple is
// materialized and nothing is allocated.
func (v ResView) Match(out relation.Tuple) []int {
	g, ok := v.st.linkKeys.Lookup(out, v.r.linkOut)
	if !ok {
		return nil
	}
	return v.st.rows[v.st.starts[g]:v.st.starts[g+1]]
}

// FillInto copies residual row row's new output columns into out.
func (v ResView) FillInto(row int, out relation.Tuple) {
	cols := v.st.rel.Cols()
	for _, e := range v.r.emit {
		out[e[1]] = cols[e[0]][row]
	}
}

// Rel returns the current materialized residual relation (setup-time
// convenience; hot paths pin a View instead).
func (r *Residual) Rel() *relation.Relation { return r.state.Load().rel }

// MaxDegree returns M(S_R), the maximum number of residual rows sharing
// one combination of link-attribute values (§8.2), for the current
// state.
func (r *Residual) MaxDegree() int { return r.state.Load().maxDeg }

// stale reports whether a tracked member base relation changed since
// the residual was last reconciled. srcVers is rewritten by reconcile,
// so callers must hold the owning join's memMu.
func (r *Residual) stale() bool {
	for i, s := range r.src {
		if s.Version() != r.srcVers[i] {
			return true
		}
	}
	return false
}

// reconcile brings the materialization up to date with the member base
// relations. Small append-only member deltas extend the current
// materialization with a delta join (Δ_k joined against the already-
// updated prefix and the old suffix, the standard telescoping, so each
// new combination appears exactly once) and rebuild only the link
// index; deletions, lost log tails, and large deltas fall back to full
// re-materialization. Either way a fresh immutable state is published;
// in-flight Views keep reading the old one. Callers hold the owning
// join's memMu.
func (r *Residual) reconcile() {
	type delta struct {
		newRows []int
		upTo    uint64
	}
	deltas := make([]delta, len(r.src))
	incremental := true
	total := 0
	for i, s := range r.src {
		if s.Version() == r.srcVers[i] {
			deltas[i].upTo = r.srcVers[i]
			continue
		}
		tail, upTo, ok := s.MutationsSince(r.srcVers[i])
		if !ok {
			incremental = false
			break
		}
		deltas[i].upTo = upTo
		for _, m := range tail {
			if m.Kind != relation.MutAppend {
				incremental = false
				break
			}
			deltas[i].newRows = append(deltas[i].newRows, m.Row)
		}
		if !incremental {
			break
		}
		total += len(deltas[i].newRows)
	}
	st := r.state.Load()
	if budget := 64 + st.rel.Len()/4; !incremental || total > budget {
		r.refreshFull()
		return
	}
	if total == 0 {
		for i := range r.src {
			r.srcVers[i] = deltas[i].upTo
		}
		return
	}
	// Append-only delta join: for each member k with new rows, join the
	// new rows against members 0..k-1 in their updated extent and
	// members k+1.. in their old extent.
	rel := st.rel
	_, pos := combinedSchema(r.src)
	lists := make([][]int, len(r.src))
	oldLists := make([][]int, len(r.src))
	fullLists := make([][]int, len(r.src))
	for i, s := range r.src {
		oldLists[i] = liveRowsBelow(s, r.srcLens[i])
		fullLists[i] = append(append([]int(nil), oldLists[i]...), deltas[i].newRows...)
	}
	ba := &batchAppender{rel: rel}
	for k := range r.src {
		if len(deltas[k].newRows) == 0 {
			continue
		}
		for i := range r.src {
			switch {
			case i < k:
				lists[i] = fullLists[i]
			case i == k:
				lists[i] = deltas[k].newRows
			default:
				lists[i] = oldLists[i]
			}
		}
		enumerateJoin(r.src, lists, pos, rel.Schema().Len(), ba.emit)
	}
	ba.flush()
	for i := range r.src {
		r.srcVers[i] = deltas[i].upTo
		r.srcLens[i] = r.srcLens[i] + len(deltas[i].newRows)
	}
	r.state.Store(r.buildState(rel))
}

// refreshFull re-materializes the residual from scratch and publishes a
// fresh state. Per-member row lists are captured atomically with their
// versions, so replaying later log tails can neither miss nor
// double-apply a mutation. Callers hold the owning join's memMu.
func (r *Residual) refreshFull() {
	old := r.state.Load()
	rel, vers, lens := materializeCapture(old.rel.Name(), r.src)
	copy(r.srcVers, vers)
	copy(r.srcLens, lens)
	r.state.Store(r.buildState(rel))
}

// batchAppender buffers cloned emitted tuples and flushes them to the
// relation in chunks, so a materialization pays one lock and snapshot
// per chunk rather than per emitted row.
type batchAppender struct {
	rel  *relation.Relation
	rows []relation.Tuple
}

func (ba *batchAppender) emit(t relation.Tuple) {
	ba.rows = append(ba.rows, t.Clone())
	if len(ba.rows) >= 4096 {
		ba.flush()
	}
}

func (ba *batchAppender) flush() {
	ba.rel.AppendRows(ba.rows)
	ba.rows = ba.rows[:0]
}

// liveRowsBelow lists the live row ids of r below limit.
func liveRowsBelow(r *relation.Relation, limit int) []int {
	out := make([]int, 0, limit)
	for i := 0; i < limit; i++ {
		if r.Live(i) {
			out = append(out, i)
		}
	}
	return out
}

// buildState materializes the CSR link index over rel: pass 1 counts
// rows per distinct link key (assigning dense group ids in
// first-appearance order), pass 2 scatters row ids, keeping each group
// ascending.
func (r *Residual) buildState(rel *relation.Relation) *resState {
	n := rel.Len()
	cols := rel.Cols()
	st := &resState{rel: rel, linkKeys: relation.NewKeyCounter(len(r.linkPos), n)}
	for i := 0; i < n; i++ {
		_, c := st.linkKeys.AddRow(cols, i, r.linkPos, 1)
		if c > st.maxDeg {
			st.maxDeg = c
		}
	}
	groups := st.linkKeys.Len()
	st.starts = make([]int32, groups+1)
	for g := 0; g < groups; g++ {
		st.starts[g+1] = st.starts[g] + int32(st.linkKeys.At(g))
	}
	st.rows = make([]int, n)
	cursor := append([]int32(nil), st.starts[:groups]...)
	for i := 0; i < n; i++ {
		g, _ := st.linkKeys.LookupRow(cols, i, r.linkPos)
		st.rows[cursor[g]] = i
		cursor[g]++
	}
	return st
}

// NewCyclic builds a join from a general (possibly cyclic) join graph.
// rels and edges describe the graph; residualSet optionally names the
// relation indexes to remove (nil means choose automatically: the
// smallest set whose removal leaves a connected, acyclic skeleton).
// The residual relations are materialized by joining them (§8.2).
func NewCyclic(name string, rels []*relation.Relation, edges []Edge, residualSet []int) (*Join, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("join %s: no relations", name)
	}
	for _, e := range edges {
		if e.A < 0 || e.A >= len(rels) || e.B < 0 || e.B >= len(rels) || e.A == e.B {
			return nil, fmt.Errorf("join %s: bad edge %+v", name, e)
		}
		if !rels[e.A].Schema().Has(e.Attr) || !rels[e.B].Schema().Has(e.Attr) {
			return nil, fmt.Errorf("join %s: edge on %q not shared by %s and %s",
				name, e.Attr, rels[e.A].Name(), rels[e.B].Name())
		}
	}
	if isTree(len(rels), edges, nil) {
		return treeFromGraph(name, rels, edges, nil, nil)
	}
	var residual []int
	if residualSet != nil {
		residual = append([]int(nil), residualSet...)
		sort.Ints(residual)
		if !isTree(len(rels), edges, residual) {
			return nil, fmt.Errorf("join %s: removing %v does not leave a connected acyclic skeleton", name, residual)
		}
	} else {
		residual = chooseResidual(len(rels), edges)
		if residual == nil {
			return nil, fmt.Errorf("join %s: no residual set yields a connected acyclic skeleton", name)
		}
	}
	if len(residual) == len(rels) {
		return nil, fmt.Errorf("join %s: residual would consume every relation", name)
	}
	res, err := materializeResidual(name, rels, edges, residual)
	if err != nil {
		return nil, err
	}
	return treeFromGraph(name, rels, edges, residual, res)
}

// isTree reports whether the graph over n relations minus the removed
// set is connected and acyclic (considering only edges between kept
// relations). A single kept relation counts as a tree.
func isTree(n int, edges []Edge, removed []int) bool {
	gone := make(map[int]bool, len(removed))
	for _, r := range removed {
		gone[r] = true
	}
	kept := 0
	for i := 0; i < n; i++ {
		if !gone[i] {
			kept++
		}
	}
	if kept == 0 {
		return false
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	keptEdges := 0
	for _, e := range edges {
		if gone[e.A] || gone[e.B] {
			continue
		}
		ra, rb := find(e.A), find(e.B)
		if ra == rb {
			return false // cycle among kept relations
		}
		parent[ra] = rb
		keptEdges++
	}
	return keptEdges == kept-1 // connected iff tree edge count matches
}

// chooseResidual returns the smallest relation subset whose removal
// leaves a connected acyclic skeleton, breaking ties by the smallest
// total residual row count (cheaper to materialize). Exhaustive search:
// join graphs are small.
func chooseResidual(n int, edges []Edge) []int {
	for size := 1; size < n; size++ {
		best := []int(nil)
		subset := make([]int, size)
		var rec func(start, k int)
		rec = func(start, k int) {
			if k == size {
				if isTree(n, edges, subset) {
					if best == nil {
						best = append([]int(nil), subset...)
					}
				}
				return
			}
			for i := start; i < n; i++ {
				subset[k] = i
				rec(i+1, k+1)
			}
		}
		rec(0, 0)
		if best != nil {
			return best
		}
	}
	return nil
}

// combinedSchema computes the union of the member attributes in
// first-appearance order, together with each attribute's position.
func combinedSchema(members []*relation.Relation) ([]string, map[string]int) {
	var attrs []string
	pos := make(map[string]int)
	for _, m := range members {
		for _, a := range m.Schema().Attrs() {
			if _, ok := pos[a]; !ok {
				pos[a] = len(attrs)
				attrs = append(attrs, a)
			}
		}
	}
	return attrs, pos
}

// enumerateJoin backtracks over the given per-member row-id lists,
// emitting every combination consistent on shared attribute names, in
// list order (deterministic).
func enumerateJoin(members []*relation.Relation, lists [][]int, pos map[string]int, width int, emit func(relation.Tuple)) {
	partial := make(relation.Tuple, width)
	setCount := make([]int, width)
	var rec func(k int)
	rec = func(k int) {
		if k == len(members) {
			emit(partial)
			return
		}
		rel := members[k]
		cols := rel.Cols()
	rows:
		for _, i := range lists[k] {
			touched := make([]int, 0, rel.Arity())
			for a := 0; a < rel.Arity(); a++ {
				p := pos[rel.Schema().Attr(a)]
				if setCount[p] > 0 {
					if partial[p] != cols[a][i] {
						for _, tp := range touched {
							setCount[tp]--
						}
						continue rows
					}
				} else {
					partial[p] = cols[a][i]
				}
				setCount[p]++
				touched = append(touched, p)
			}
			rec(k + 1)
			for _, tp := range touched {
				setCount[tp]--
			}
		}
	}
	rec(0)
}

// materializeCapture executes the backtracking natural join of the
// member relations' live rows into one relation whose schema is the
// union of the member attributes in first-appearance order
// (deterministic in the member schemas, so re-materialization preserves
// attribute positions). Each member's row list is captured atomically
// with its version (relation.LiveRows), and the capture points are
// returned so the caller can reconcile incrementally from them.
func materializeCapture(name string, members []*relation.Relation) (*relation.Relation, []uint64, []int) {
	attrs, pos := combinedSchema(members)
	out := relation.New(name, relation.NewSchema(attrs...))
	lists := make([][]int, len(members))
	vers := make([]uint64, len(members))
	lens := make([]int, len(members))
	for i, m := range members {
		lists[i], lens[i], vers[i] = m.LiveRows()
	}
	ba := &batchAppender{rel: out}
	enumerateJoin(members, lists, pos, len(attrs), ba.emit)
	ba.flush()
	return out, vers, lens
}

// materializeResidual joins the residual relations into one relation.
// Residual relations are joined on their mutual edges plus natural
// equality of any shared attribute names.
func materializeResidual(name string, rels []*relation.Relation, edges []Edge, residual []int) (*Residual, error) {
	inRes := make(map[int]bool, len(residual))
	for _, r := range residual {
		inRes[r] = true
	}
	members := make([]*relation.Relation, len(residual))
	for i, ri := range residual {
		members[i] = rels[ri]
	}
	out, vers, lens := materializeCapture(name+"_residual", members)
	pos := make(map[string]int)
	for i, a := range out.Schema().Attrs() {
		pos[a] = i
	}

	// Link attributes: shared between the residual schema and any kept
	// (skeleton) relation.
	linkSet := make(map[string]bool)
	for i, r := range rels {
		if inRes[i] {
			continue
		}
		for _, a := range r.Schema().Attrs() {
			if _, ok := pos[a]; ok {
				linkSet[a] = true
			}
		}
	}
	if len(linkSet) == 0 {
		return nil, fmt.Errorf("join %s: residual shares no attribute with the skeleton", name)
	}
	links := make([]string, 0, len(linkSet))
	for a := range linkSet {
		links = append(links, a)
	}
	sort.Strings(links)
	res := &Residual{LinkAttrs: links, src: members, srcVers: vers, srcLens: lens}
	res.linkPos = make([]int, len(links))
	for i, a := range links {
		res.linkPos[i] = out.Schema().Index(a)
	}
	res.state.Store(res.buildState(out))
	return res, nil
}

// treeFromGraph roots the skeleton (kept relations) at the smallest
// kept index and emits a topologically ordered Join.
func treeFromGraph(name string, rels []*relation.Relation, edges []Edge, residual []int, res *Residual) (*Join, error) {
	gone := make(map[int]bool, len(residual))
	for _, r := range residual {
		gone[r] = true
	}
	adj := make(map[int][]Edge)
	for _, e := range edges {
		if gone[e.A] || gone[e.B] {
			continue
		}
		adj[e.A] = append(adj[e.A], e)
		adj[e.B] = append(adj[e.B], Edge{A: e.B, B: e.A, Attr: e.Attr})
	}
	root := -1
	for i := range rels {
		if !gone[i] {
			root = i
			break
		}
	}
	// BFS order from root, recording parent and edge attribute.
	order := []int{root}
	parentOf := map[int]int{root: -1}
	attrOf := map[int]string{root: ""}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for _, e := range adj[u] {
			v := e.B
			if _, seen := parentOf[v]; seen {
				continue
			}
			parentOf[v] = u
			attrOf[v] = e.Attr
			order = append(order, v)
		}
	}
	kept := 0
	for i := range rels {
		if !gone[i] {
			kept++
		}
	}
	if len(order) != kept {
		return nil, fmt.Errorf("join %s: skeleton is disconnected", name)
	}
	treeRels := make([]*relation.Relation, len(order))
	treeParent := make([]int, len(order))
	treeAttrs := make([]string, len(order))
	newIdx := make(map[int]int, len(order))
	for i, orig := range order {
		newIdx[orig] = i
	}
	for i, orig := range order {
		treeRels[i] = rels[orig]
		if p := parentOf[orig]; p < 0 {
			treeParent[i] = -1
		} else {
			treeParent[i] = newIdx[p]
		}
		treeAttrs[i] = attrOf[orig]
	}
	j, err := NewTree(name, treeRels, treeParent, treeAttrs)
	if err != nil {
		return nil, err
	}
	if res != nil {
		j.res = res
		if err := j.buildOutput(); err != nil { // rebuild with residual columns
			return nil, err
		}
		// Link attributes must be produced by the skeleton so probes can
		// read them from the partial output.
		for _, a := range res.LinkAttrs {
			if j.out.Index(a) < 0 {
				return nil, fmt.Errorf("join %s: link attribute %q missing from output", name, a)
			}
		}
		res.linkOut = make([]int, len(res.LinkAttrs))
		for i, a := range res.LinkAttrs {
			res.linkOut[i] = j.out.Index(a)
		}
		j.membership.Store(nil)
	}
	return j, nil
}
