// Package joinsample implements random sampling over a single join —
// the subroutine of the union-sampling framework (§3.2). It follows the
// framework of Zhao et al. (SIGMOD'18) with the paper's adaptations:
//
//   - Exact Weight (EW): exact per-tuple result counts computed bottom-up
//     over the join tree; zero rejection, uniform samples. A row is drawn
//     by an exact integer draw below its segment's total and a search of
//     the segment's running sums (a large segment's directory of block
//     totals, then one block), and a Refresh patches only the segments
//     its mutations reached — of a large one, only the blocks holding a
//     mutated row and its directory (NewEWFrom) — building nothing else.
//   - Extended Olken (EO): max-degree upper-bound weights with
//     accept/reject; uniform samples with a rejection rate that grows
//     with skew. Dangling tuples have acceptance probability zero, which
//     is the paper's relaxation of the key–foreign-key assumption.
//
// EO is the one index-only subroutine. Beside the two, Walker performs
// Wander Join walks (Li et al. SIGMOD'16), each returning a result tuple
// together with its exact sampling probability p(t): not a uniform
// sampler but the ingredient of Horvitz–Thompson size estimation (§6.1)
// and of the online sampler's reuse pool (§7).
//
// Cyclic joins sample their skeleton tree and then accept/reject against
// the materialized residual with probability d/M(S_R), preserving
// uniformity (§8.2).
package joinsample

import (
	"math/bits"
	"slices"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// Sampler draws uniform, independent samples from one join.
type Sampler interface {
	// SampleManyInto is the draw: it fills out[0], out[1], ... with up
	// to len(out) independent accepted draws, attempting at most
	// maxTries subroutine draws in total, and returns how many tuples
	// were accepted and how many attempts were consumed (EW never
	// rejects on non-empty tree joins). Each out[i] must be a distinct
	// caller-owned tuple of the join's output schema length and rowOf
	// caller-owned scratch of at least NumNodes entries; a rejected
	// attempt may leave both partially written. Samplers are shared
	// between concurrent runs; handing each run its own scratch is what
	// keeps the per-draw path allocation-free and race-free. The
	// acceptance loop runs tight inside the concrete sampler — no
	// interface dispatch per attempt.
	SampleManyInto(out []relation.Tuple, rowOf []int, maxTries int, g *rng.RNG) (filled, tries int)
	// SizeEstimate returns the sampler's knowledge of |J|: exact for EW
	// on tree joins, the Olken upper bound for EO.
	SizeEstimate() float64
	// Join returns the underlying join.
	Join() *join.Join
}

// liveRoot draws a uniform live row of r. When the relation has no
// tombstones this is a single Intn (keeping seeded streams byte-
// identical to the pre-live-relation implementation); with tombstones
// it rejects dead slots, which stays uniform over the live rows. The
// rejection loop re-checks LiveLen periodically so a concurrent
// mutator draining the relation turns the draw into a failure, never
// a spin.
func liveRoot(r *relation.Relation, g *rng.RNG) (int, bool) {
	n := r.Len()
	if n == 0 {
		return 0, false
	}
	if !r.HasDeleted() {
		return g.Intn(n), true
	}
	for r.LiveLen() > 0 {
		for tries := 0; tries < 64; tries++ {
			if i := g.Intn(n); r.Live(i) {
				return i, true
			}
		}
	}
	return 0, false
}

// drawScaled draws x below a segment's total, scale times its rows' own
// total own, with the exact integer bounded draw — correct for every
// representable total, with no round-up past the segment and no 53-bit
// precision loss — and returns ⌊x/scale⌋: the first row whose running
// own sum c_i exceeds it is the first whose scaled sum c_i·scale exceeds
// x, as c_i·scale > x ⟺ c_i > ⌊x/scale⌋. join.ExactWeights keeps the
// total in (0, math.MaxInt64] for a segment a draw reaches.
func drawScaled(own, scale int64, g *rng.RNG) int64 {
	x := int64(g.Uint64n(uint64(scale * own)))
	if scale != 1 {
		x /= scale
	}
	return x
}

// searchCum returns the first i with cum[i] > x — the index
// slices.BinarySearch(cum, x+1) returns — for non-decreasing cum and
// 0 <= x < cum[len(cum)-1]. Running sums of join.LargeRows or more are
// searched from the proportional guess ⌊x·n/total⌋ (searchFrom); fewer
// are bisected.
func searchCum(cum []int64, x int64) int {
	if len(cum) < join.LargeRows {
		i, _ := slices.BinarySearch(cum, x+1)
		return i
	}
	return searchFrom(cum, x)
}

// searchFrom is searchCum from the proportional guess ⌊x·n/total⌋,
// exact when the weights are equal: a gallop from it, in steps that
// double, brackets the answer, and bisection finds it inside the
// bracket.
func searchFrom(cum []int64, x int64) int {
	n := len(cum)
	a, b := -1, n // cum[a] <= x < cum[b], reading cum[-1] as 0 and cum[n] as past x
	hi, lo := bits.Mul64(uint64(x), uint64(n))
	q, _ := bits.Div64(hi, lo, uint64(cum[n-1])) // < n, as x < total
	for i, step := int(q), 1; a < i && i < b; step <<= 1 {
		if cum[i] > x {
			b, i = i, i-step
		} else {
			a, i = i, i+step
		}
	}
	i, _ := slices.BinarySearch(cum[a+1:b], x+1)
	return a + 1 + i
}

// searchLarge returns the row of seg whose running own sum, over the
// whole segment, first exceeds x, for 0 <= x < the last of seg.Sums:
// a search of the top directory names the group (skipped for a segment
// of one group), a search of the group's directory, less the total
// before the group, the block, and searchCum over the block's own sums,
// less the total before the block, the row. The directories are
// searched from the proportional guess whatever their length: blocks of
// about equal rows make it about right. That is the row a flat search
// of the segment's running sums finds, wherever group and block
// boundaries fall.
func searchLarge(seg *join.LargeSegment, x int64) int32 {
	g := 0
	if len(seg.Sums) > 1 {
		if g = searchFrom(seg.Sums, x); g > 0 {
			x -= seg.Sums[g-1]
		}
	}
	grp := seg.Groups[g]
	b := searchFrom(grp.Sums, x)
	if b > 0 {
		x -= grp.Sums[b-1]
	}
	blk := grp.Blocks[b]
	return blk.Rows[searchCum(blk.Cum, x)]
}

// EW is the Exact Weight sampler: uniform with zero rejection on tree
// joins (cyclic joins keep a residual rejection step).
type EW struct {
	j *join.Join
	// w holds, per node, the weight table aligned to the node's
	// join-attribute index: probing is one index lookup plus two offset
	// reads. It describes exactly the relation versions w.Vers: the union
	// layer detects a mismatch (unionBase.dirtyJoins), and Refresh
	// patches a successor from this sampler (NewEWFrom), which shares
	// every segment the mutations did not reach.
	w     *join.Weights
	patch join.Patch // how w came from the predecessor's tables
}

// NewEW precomputes exact weights for j, a join whose weights are known
// to fit an int64: it panics with join.ErrWeightOverflow otherwise.
// NewEWFrom reports that as an error.
func NewEW(j *join.Join) *EW {
	e, err := NewEWFrom(j, nil)
	if err != nil {
		panic(err)
	}
	return e
}

// NewEWFrom builds j's sampler given the one the join drew from before
// its relations last mutated (nil builds cold): the weights are patched
// from prev's (join.PatchWeights) instead of recomputed, and the large
// segments the patch did not reach are prev's own. The draws equal a
// cold build's, seed for seed: every segment holds the rows and running
// sums a cold build computes, and a draw reads nothing else. A join
// whose weights pass math.MaxInt64 is join.ErrWeightOverflow.
func NewEWFrom(j *join.Join, prev *EW) (*EW, error) {
	var from *join.Weights
	if prev != nil && prev.j == j {
		from = prev.w
	}
	w, patch, err := j.PatchWeights(from)
	if err != nil {
		return nil, err
	}
	return &EW{j: j, w: w, patch: patch}, nil
}

// Patch reports how the sampler's weight tables were derived from its
// predecessor's.
func (e *EW) Patch() join.Patch { return e.patch }

// Weights returns the weight tables the sampler draws from.
func (e *EW) Weights() *join.Weights { return e.w }

// Join implements Sampler.
func (e *EW) Join() *join.Join { return e.j }

// ExactCount returns the exact skeleton result count. For tree joins
// this is |J|.
func (e *EW) ExactCount() int64 { return e.w.Count() }

// SizeEstimate implements Sampler: exact |J| for tree joins, and the
// skeleton count times the residual max degree (an upper bound) for
// cyclic joins.
func (e *EW) SizeEstimate() float64 {
	if res := e.j.ResidualPart(); res != nil {
		return float64(e.w.Count()) * float64(res.MaxDegree())
	}
	return float64(e.w.Count())
}

// StateVersions returns the per-relation version snapshot the sampler's
// weight tables were built over;
// a mismatch with the join's current StateVersions means the tables
// describe stale data and the sampler must be rebuilt (which Refresh
// does for dirty joins).
func (e *EW) StateVersions() []uint64 { return e.w.Vers }

// drawRow is the row selection of every EW draw, over entry ent of node
// k: one exact integer draw below the segment's total and a search of
// its running own sums (drawScaled) — a small segment's flat ones, a
// large segment's two directories and then one block — so a draw neither
// allocates nor depends on which generation holds the segment, where its
// blocks split or whether its scale was factored out. ok is false on a
// segment of total 0.
func (e *EW) drawRow(k, ent int, g *rng.RNG) (row int, ok bool) {
	rows, cum, scale, seg := e.w.Nodes[k].Segment(ent)
	switch {
	case scale == 0: // a keyed child lacks the value: total 0
	case seg != nil:
		return int(searchLarge(seg, drawScaled(seg.Sums[len(seg.Sums)-1], scale, g))), true
	case len(rows) > 0:
		return int(rows[searchCum(cum, drawScaled(cum[len(cum)-1], scale, g))]), true
	}
	return 0, false
}

// SampleManyInto implements Sampler: a tight walk loop over the
// caller's scratch — the root is entry 0 of its own table, every other
// node the entry of its parent's join value. On tree joins it never
// rejects, so filled == min(len(out), maxTries).
func (e *EW) SampleManyInto(out []relation.Tuple, rowOf []int, maxTries int, g *rng.RNG) (filled, tries int) {
	if e.w.Count() == 0 || len(out) == 0 {
		return 0, 0
	}
	nodes := e.j.Nodes()
	for filled < len(out) && tries < maxTries {
		tries++
		t := out[filled]
		ok := true
		for k := range nodes {
			ent := 0
			if k > 0 {
				v := e.j.ParentValue(k, rowOf[nodes[k].Parent])
				if ent, ok = e.w.Idx[k].EntryOf(v); !ok {
					break
				}
			}
			// An empty segment is impossible after a positive-weight
			// parent draw; defensive.
			if rowOf[k], ok = e.drawRow(k, ent, g); !ok {
				break
			}
			e.j.FillOutput(k, rowOf[k], t)
		}
		if !ok || !finishResidual(e.j, t, g) {
			continue
		}
		filled++
	}
	return filled, tries
}

// finishResidual applies the residual accept/reject step for cyclic
// joins: accept with probability d/M(S_R) and pick uniformly among the
// d matching residual rows, keeping the overall draw uniform. The view
// is pinned once, so the matched rows, M(S_R), and the row fill all
// read the same materialization even under a concurrent reconcile.
func finishResidual(j *join.Join, out relation.Tuple, g *rng.RNG) bool {
	res := j.ResidualPart()
	if res == nil {
		return true
	}
	rv := res.View()
	matches := rv.Match(out)
	d := len(matches)
	if d == 0 {
		return false
	}
	if !g.Bernoulli(float64(d) / float64(rv.MaxDegree())) {
		return false
	}
	rv.FillInto(matches[g.Intn(d)], out)
	return true
}
