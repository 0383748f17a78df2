package join

import (
	"sampleunion/internal/relation"
)

// Enumerate streams every join result tuple to yield; enumeration stops
// early when yield returns false. This is the FullJoin brute force the
// paper uses as ground truth (§9); tuples passed to yield are reused
// between calls, so clone them to retain.
func (j *Join) Enumerate(yield func(relation.Tuple) bool) {
	out := make(relation.Tuple, j.out.Len())
	var rv ResView
	if j.res != nil {
		rv = j.res.View()
	}
	j.enumerate(0, out, rv, yield)
}

// enumerate extends the partial output with node k's rows; when all
// skeleton nodes are assigned it applies the residual probe (if any)
// and emits.
func (j *Join) enumerate(k int, out relation.Tuple, rv ResView, yield func(relation.Tuple) bool) bool {
	if k == len(j.nodes) {
		if j.res == nil {
			return yield(out)
		}
		for _, ri := range rv.Match(out) {
			rv.FillInto(ri, out)
			if !yield(out) {
				return false
			}
		}
		return true
	}
	// Row ids before columns: relations may grow meanwhile, storage is
	// monotone, so columns read after an id always hold it.
	n := &j.nodes[k]
	if k == 0 {
		rows := n.Rel.Len()
		cols := n.Rel.Cols()
		for i := 0; i < rows; i++ {
			if !n.Rel.Live(i) {
				continue
			}
			for _, e := range n.emit {
				out[e[1]] = cols[e[0]][i]
			}
			if !j.enumerate(k+1, out, rv, yield) {
				return false
			}
		}
		return true
	}
	parentVal := out[j.nodes[n.Parent].proj[n.ParentAttrPos]]
	matches := n.Rel.Matches(n.AttrPos, parentVal)
	cols := n.Rel.Cols()
	for _, i := range matches {
		for _, e := range n.emit {
			out[e[1]] = cols[e[0]][i]
		}
		if !j.enumerate(k+1, out, rv, yield) {
			return false
		}
	}
	return true
}

// Execute materializes the full join result. Use only when the result
// fits in memory; prefer Enumerate otherwise.
func (j *Join) Execute() []relation.Tuple {
	var out []relation.Tuple
	j.Enumerate(func(t relation.Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// Count returns the exact join result size. For tree joins it uses the
// bottom-up weight recurrence (each tuple's exact extension count, the
// EW statistic of Zhao et al.), which runs in time linear in the input
// rather than the output; cyclic joins fall back to enumeration.
func (j *Join) Count() int64 {
	if j.res == nil {
		return j.ExactWeights().Count()
	}
	var total int64
	j.Enumerate(func(relation.Tuple) bool {
		total++
		return true
	})
	return total
}

// WeightTable is one join node's exact weights, packed the way the EW
// sampler draws from them: the rows with positive weight, grouped by
// join-attribute value. Segment e — the rows of entry e of the node's
// index, in index order — is Rows[Off[e]:Off[e+1]], with Cum the running
// weight sum inside each segment, so a segment's last Cum is the total
// weight of its value. The root, which has no join attribute, is one
// segment of its positive-weight rows in row order.
//
// Like the index it is aligned to, a table is a flat base plus an
// optional overlay: PatchWeights recomputes only the segments a mutation
// reached and keeps them beside the predecessor's flat arrays, which the
// two generations then share. Segment and Total read through the
// overlay; Off, Rows and Cum alone describe the table only when it
// carries none.
type WeightTable struct {
	Off  []int32
	Rows []int32
	Cum  []int64
	ov   *segOverlay // nil = flat
}

// Segment returns entry e's rows and their running weight sums. A flat
// table answers inline; only a patched one pays the overlay's search.
func (t *WeightTable) Segment(e int) ([]int32, []int64) {
	if t.ov != nil {
		return t.ov.segment(t, e)
	}
	lo, hi := t.Off[e], t.Off[e+1]
	return t.Rows[lo:hi], t.Cum[lo:hi]
}

// Total returns the summed weight of entry e's rows.
func (t *WeightTable) Total(e int) int64 {
	if t.ov != nil {
		if _, cum := t.ov.segment(t, e); len(cum) > 0 {
			return cum[len(cum)-1]
		}
		return 0
	}
	if lo, hi := t.Off[e], t.Off[e+1]; lo < hi {
		return t.Cum[hi-1]
	}
	return 0
}

// add appends row r with weight w to the open segment; zero-weight
// rows are dropped. end closes the segment.
func (t *WeightTable) add(r int, w int64) {
	if w <= 0 {
		return
	}
	if n := len(t.Cum); n > int(t.Off[len(t.Off)-1]) {
		w += t.Cum[n-1]
	}
	t.Rows = append(t.Rows, int32(r))
	t.Cum = append(t.Cum, w)
}

func (t *WeightTable) end() { t.Off = append(t.Off, int32(len(t.Rows))) }

// Weights is the Exact Weight (EW) statistic of Zhao et al. (§3.2) over
// one reading of the join's relations: for every node and row, the exact
// number of results of the node's subtree the row participates in.
// Dangling and tombstoned rows weigh 0 (the paper's relaxation of
// key–foreign-key joins, extended to live relations) and are not
// stored. The residual (cyclic case) is not included; samplers handle
// it by rejection.
type Weights struct {
	// Vers is StateVersions read before anything else, so a mutation
	// racing the build leaves Vers behind the join's and the weights
	// read as stale.
	Vers []uint64
	// Idx[k] is node k's join-attribute index, the one Nodes[k]'s
	// segments are aligned to (nil for the root).
	Idx   []*relation.Index
	Nodes []WeightTable
}

// Count returns the exact skeleton result count, |J| for tree joins.
func (w *Weights) Count() int64 { return w.Nodes[0].Total(0) }

// ExactWeights computes the join's Weights in one bottom-up pass with a
// fixed number of allocations per node: a node's row weights are the
// product of its children's segment totals, and packing them along the
// node's own index yields the totals its parent needs. Relations may
// mutate meanwhile: each node's index is fetched before its storage
// snapshot, storage is monotone, so every indexed row id is inside the
// snapshot, and liveness is read from that snapshot alone.
func (j *Join) ExactWeights() *Weights {
	ws := &Weights{
		Vers:  j.StateVersions(),
		Idx:   make([]*relation.Index, len(j.nodes)),
		Nodes: make([]WeightTable, len(j.nodes)),
	}
	for k := 1; k < len(j.nodes); k++ {
		ws.Idx[k] = j.nodes[k].Rel.Index(j.nodes[k].AttrPos)
	}
	snaps := make([]relation.SnapshotData, len(j.nodes))
	most := 0
	for k := range j.nodes {
		snaps[k] = j.nodes[k].Rel.CaptureSnapshot()
		most = max(most, snaps[k].Rows)
	}
	scratch := make([]int64, most) // the row weights of the node in hand
	// Reverse topological order: children first.
	for k := len(j.nodes) - 1; k >= 0; k-- {
		s := &snaps[k]
		w := scratch[:s.Rows]
		for i := range w {
			w[i] = 0
			if s.IsLive(i) {
				w[i] = 1
			}
		}
		for _, c := range j.nodes[k].Children {
			col, idx, sums := s.Cols[j.nodes[c].ParentAttrPos], ws.Idx[c], &ws.Nodes[c]
			for i, wi := range w {
				if wi == 0 {
					continue
				}
				w[i] = 0
				if e, ok := idx.EntryOf(col[i]); ok {
					w[i] = wi * sums.Total(e)
				}
			}
		}
		positive := 0
		for _, wi := range w {
			if wi > 0 {
				positive++
			}
		}
		t := &ws.Nodes[k]
		t.Rows = make([]int32, 0, positive)
		t.Cum = make([]int64, 0, positive)
		if k == 0 {
			t.Off = make([]int32, 1, 2)
			for i, wi := range w {
				t.add(i, wi)
			}
			t.end()
			continue
		}
		t.Off = make([]int32, 1, ws.Idx[k].NumEntries()+1)
		ws.Idx[k].EachEntry(func(rows []int) {
			for _, r := range rows {
				t.add(r, w[r])
			}
			t.end()
		})
	}
	return ws
}

// OlkenBound returns the extended Olken upper bound on the join size:
// |R_root| · Π over non-root nodes of M_attr(R) (§3.2), times M(S_R)
// for cyclic joins. It is 0 when any relation is empty.
func (j *Join) OlkenBound() float64 {
	bound := float64(j.nodes[0].Rel.LiveLen())
	for k := 1; k < len(j.nodes); k++ {
		n := &j.nodes[k]
		bound *= float64(n.Rel.MaxDegree(n.AttrPos))
	}
	if j.res != nil {
		bound *= float64(j.res.MaxDegree())
	}
	return bound
}
