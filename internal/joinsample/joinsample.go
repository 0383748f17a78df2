// Package joinsample implements random sampling over a single join —
// the subroutine of the union-sampling framework (§3.2). It follows the
// framework of Zhao et al. (SIGMOD'18) with the paper's adaptations:
//
//   - Exact Weight (EW): exact per-tuple result counts computed bottom-up
//     over the join tree; zero rejection, uniform samples.
//   - Extended Olken (EO): max-degree upper-bound weights with
//     accept/reject; uniform samples with a rejection rate that grows
//     with skew. Dangling tuples have acceptance probability zero, which
//     is the paper's relaxation of the key–foreign-key assumption.
//   - Wander Join (WJ, Li et al. SIGMOD'16): random walks returning a
//     result tuple together with its exact sampling probability p(t),
//     the ingredient of Horvitz–Thompson size estimation (§6.1) and of
//     the online sampler's reuse pool (§7).
//
// Cyclic joins sample their skeleton tree and then accept/reject against
// the materialized residual with probability d/M(S_R), preserving
// uniformity (§8.2).
package joinsample

import (
	"sort"
	"sync/atomic"

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
	// Method names the weight instantiation ("EW", "EO", "WJ").
	Method() string
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

// DefaultAliasThreshold is the fan-out above which EW selects weighted
// rows through a lazily built Walker alias table (O(1) per draw)
// instead of the prefix-sum binary search (O(log fan-out)). Below it
// the table's two RNG draws and cache footprint cost more than the
// search saves. The threshold is per-sampler configuration
// (NewEWAlias), never mutable package state: each EW captures its value
// at construction, so a prepared session's pinned streams cannot be
// perturbed after the fact. An adaptive plan supplies per-join
// thresholds; everything else uses this default.
const DefaultAliasThreshold = 32

// NeverAlias is a threshold no fan-out reaches: bounded prefix-sum
// draws only.
const NeverAlias = 1 << 30

// weightedRows supports weighted row selection: O(1) via a lazily built
// alias table for fan-outs at or above the sampler's alias threshold,
// O(log n) via the exact integer prefix-sum draw below it.
type weightedRows struct {
	rows []int   // row ids
	cum  []int64 // cumulative weights, cum[i] = sum of w(rows[0..i])

	// alias is the lazily built O(1) draw table, published atomically
	// so concurrent runs build it at most once each and share one
	// winner. It is derived purely from rows/cum, which are immutable
	// after buildWeighted: a live mutation invalidates the whole
	// sampler generation (unionBase.refreshed rebuilds the dirty
	// joins' samplers from the current index version), so an alias
	// table can never outlive the row lists it was built from.
	alias atomic.Pointer[rng.Alias]
}

func (wr *weightedRows) total() int64 {
	if len(wr.cum) == 0 {
		return 0
	}
	return wr.cum[len(wr.cum)-1]
}

// drawBounded picks a row id proportional to weight using the exact
// integer bounded draw: correct for every representable total, with no
// round-up past the table and no 53-bit precision loss.
func (wr *weightedRows) drawBounded(g *rng.RNG) int {
	x := int64(g.Uint64n(uint64(wr.total())))
	i := sort.Search(len(wr.cum), func(i int) bool { return wr.cum[i] > x })
	return wr.rows[i]
}

// drawBatch is the row selection of every EW draw: alias table at or
// above the threshold (built lazily on the first draw of this distinct
// value), exact prefix-sum draw below it. The choice depends only on
// the fan-out and the sampler's captured threshold, so streams stay
// deterministic regardless of which run triggered the build.
// Exactness caveat: the alias table normalizes its per-row
// probabilities in float64, so above the threshold individual rows
// carry a relative error up to ~2^-53 — the sub-threshold drawBounded
// path is the one that is exact for every representable total.
func (wr *weightedRows) drawBatch(g *rng.RNG, aliasMin int) int {
	if len(wr.rows) >= aliasMin {
		return wr.rows[wr.aliasTable().Draw(g)]
	}
	return wr.drawBounded(g)
}

// aliasTable returns the alias table, building and publishing it on
// first use. Racing builders construct identical tables (the build is
// deterministic in rows/cum); the first CAS wins and everyone shares
// its table.
func (wr *weightedRows) aliasTable() *rng.Alias {
	if a := wr.alias.Load(); a != nil {
		return a
	}
	w := make([]float64, len(wr.rows))
	prev := int64(0)
	for i, c := range wr.cum {
		w[i] = float64(c - prev)
		prev = c
	}
	wr.alias.CompareAndSwap(nil, rng.NewAlias(w))
	return wr.alias.Load()
}

func buildWeighted(rows []int, w []int64) *weightedRows {
	wr := &weightedRows{}
	var cum int64
	for _, r := range rows {
		if w[r] <= 0 {
			continue
		}
		cum += w[r]
		wr.rows = append(wr.rows, r)
		wr.cum = append(wr.cum, cum)
	}
	return wr
}

// EW is the Exact Weight sampler: uniform with zero rejection on tree
// joins (cyclic joins keep a residual rejection step).
type EW struct {
	j       *join.Join
	weights [][]int64
	root    *weightedRows
	// nodeIdx[node] is the node's join-attribute CSR index; byValue[node]
	// is parallel to its entries: the weighted matching rows per distinct
	// join value (nil when all matching rows have zero weight). Probing
	// is one index lookup plus one slice access — no second hash table.
	nodeIdx []*relation.Index
	byValue [][]*weightedRows
	exact   int64 // skeleton result count (== |J| for tree joins)

	// aliasMin is the alias threshold captured at construction: the
	// fan-out at which draws switch from prefix sums to alias tables.
	// Capturing it keeps a prepared session's streams stable across
	// re-plans: a new threshold only applies to samplers built after it
	// was decided.
	aliasMin int
	// vers snapshots join.StateVersions() at construction. The
	// weighted-row tables (and any alias tables lazily built over
	// them) describe exactly this version of the data: relations
	// mutate by bumping their version, the union layer detects the
	// mismatch (unionBase.dirtyJoins), and Refresh builds a fresh EW
	// over the delta-overlaid index — which is how alias invalidation
	// is wired to the live-mutation machinery.
	vers []uint64
}

// NewEW precomputes exact weights for j with the default alias
// threshold.
func NewEW(j *join.Join) *EW { return NewEWAlias(j, DefaultAliasThreshold) }

// NewEWAlias precomputes exact weights for j with an explicit alias
// threshold: the fan-out at which draws build alias tables
// (0 = always, NeverAlias = never).
func NewEWAlias(j *join.Join, aliasMin int) *EW {
	nodes := j.Nodes()
	w := j.ExactWeights()
	e := &EW{
		j: j, weights: w,
		nodeIdx:  make([]*relation.Index, len(nodes)),
		byValue:  make([][]*weightedRows, len(nodes)),
		aliasMin: aliasMin,
		vers:     j.StateVersions(),
	}
	// Dead root rows carry weight 0 (ExactWeights) and are filtered by
	// buildWeighted, so enumerating physical ids is safe.
	rootRows := make([]int, nodes[0].Rel.Len())
	for i := range rootRows {
		rootRows[i] = i
	}
	e.root = buildWeighted(rootRows, w[0])
	e.exact = e.root.total()
	for k := 1; k < len(nodes); k++ {
		n := &nodes[k]
		idx := n.Rel.Index(n.AttrPos)
		e.nodeIdx[k] = idx
		wrs := make([]*weightedRows, idx.NumEntries())
		for ent := 0; ent < idx.NumEntries(); ent++ {
			wr := buildWeighted(idx.RowsAt(ent), w[k])
			if wr.total() > 0 {
				wrs[ent] = wr
			}
		}
		e.byValue[k] = wrs
	}
	return e
}

// Method implements Sampler.
func (e *EW) Method() string { return "EW" }

// Join implements Sampler.
func (e *EW) Join() *join.Join { return e.j }

// ExactCount returns the exact skeleton result count. For tree joins
// this is |J|.
func (e *EW) ExactCount() int64 { return e.exact }

// SizeEstimate implements Sampler: exact |J| for tree joins, and the
// skeleton count times the residual max degree (an upper bound) for
// cyclic joins.
func (e *EW) SizeEstimate() float64 {
	if res := e.j.ResidualPart(); res != nil {
		return float64(e.exact) * float64(res.MaxDegree())
	}
	return float64(e.exact)
}

// StateVersions returns the per-relation version snapshot the sampler's
// weight tables (and their lazily built alias tables) were built over;
// a mismatch with the join's current StateVersions means the tables
// describe stale data and the sampler must be rebuilt (which Refresh
// does for dirty joins).
func (e *EW) StateVersions() []uint64 { return e.vers }

// SampleManyInto implements Sampler: a tight walk loop over the
// caller's scratch where every weighted row selection is O(1) through
// the lazily built alias tables (above the threshold). On tree joins it
// never rejects, so filled == min(len(out), maxTries).
func (e *EW) SampleManyInto(out []relation.Tuple, rowOf []int, maxTries int, g *rng.RNG) (filled, tries int) {
	if e.exact == 0 || len(out) == 0 {
		return 0, 0
	}
	nodes := e.j.Nodes()
	for filled < len(out) && tries < maxTries {
		tries++
		t := out[filled]
		rowOf[0] = e.root.drawBatch(g, e.aliasMin)
		e.j.FillOutput(0, rowOf[0], t)
		dead := false
		for k := 1; k < len(nodes); k++ {
			n := &nodes[k]
			v := e.j.ParentValue(k, rowOf[n.Parent])
			var wr *weightedRows
			if ent, ok := e.nodeIdx[k].EntryOf(v); ok {
				wr = e.byValue[k][ent]
			}
			if wr == nil || wr.total() == 0 {
				// Impossible after a positive-weight parent draw; defensive.
				dead = true
				break
			}
			rowOf[k] = wr.drawBatch(g, e.aliasMin)
			e.j.FillOutput(k, rowOf[k], t)
		}
		if dead || !finishResidual(e.j, t, g) {
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
