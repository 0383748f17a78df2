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
	"slices"
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
// perturbed after the fact. The union engines build every EW at this
// default.
const DefaultAliasThreshold = 32

// NeverAlias is a threshold no fan-out reaches: bounded prefix-sum
// draws only.
const NeverAlias = 1 << 30

// drawBounded picks a position in a weight segment proportional to
// weight using the exact integer bounded draw: correct for every
// representable total, with no round-up past the segment and no 53-bit
// precision loss. cum is the segment's running weight sums.
func drawBounded(cum []int64, g *rng.RNG) int {
	x := int64(g.Uint64n(uint64(cum[len(cum)-1])))
	i, _ := slices.BinarySearch(cum, x+1) // the first cum[i] > x
	return i
}

// aliasSlots are the alias tables of one packed run of segments: ents
// lists, ascending, the entries whose segment reaches the sampler's
// threshold, and slot[i] is ents[i]'s table, built on the segment's
// first draw and published atomically so concurrent runs share one
// winner. A table is derived purely from its segment, which is
// immutable, so generations that share a segment may share its table.
type aliasSlots struct {
	ents []int32
	slot []atomic.Pointer[rng.Alias]
}

// reaches reports whether a segment of n rows draws through an alias
// table.
func reaches(n, aliasMin int) bool { return n > 0 && n >= aliasMin }

// flatAliasSlots reserves a slot for every flat segment of t reaching
// aliasMin: two scans of the offsets, so both slices are sized exactly.
func flatAliasSlots(t *join.WeightTable, aliasMin int) *aliasSlots {
	n := 0
	for e := 0; e+1 < len(t.Off); e++ {
		if reaches(int(t.Off[e+1]-t.Off[e]), aliasMin) {
			n++
		}
	}
	a := &aliasSlots{ents: make([]int32, 0, n), slot: make([]atomic.Pointer[rng.Alias], n)}
	for e := 0; len(a.ents) < n; e++ {
		if reaches(int(t.Off[e+1]-t.Off[e]), aliasMin) {
			a.ents = append(a.ents, int32(e))
		}
	}
	return a
}

// overlaySlots returns the slots of t's overlaid segments when t is a
// patch of a table whose alias slots were was: was's overlay slots of
// the entries touched (ascending) does not name, with their tables, and
// a new slot for each touched entry whose rewritten segment reaches
// aliasMin.
func overlaySlots(t *join.WeightTable, was *nodeAlias, touched []int32, aliasMin int) *aliasSlots {
	var ents []int32
	for _, e := range was.ov.ents {
		if _, hit := slices.BinarySearch(touched, e); !hit {
			ents = append(ents, e)
		}
	}
	for _, e := range touched {
		if rows, _ := t.Segment(int(e)); reaches(len(rows), aliasMin) {
			ents = append(ents, e)
		}
	}
	slices.Sort(ents)
	a := &aliasSlots{ents: ents, slot: make([]atomic.Pointer[rng.Alias], len(ents))}
	a.carry(was, touched)
	return a
}

// find returns entry ent's slot, or nil when the entry has none.
func (a *aliasSlots) find(ent int) *atomic.Pointer[rng.Alias] {
	if i, ok := slices.BinarySearch(a.ents, int32(ent)); ok {
		return &a.slot[i]
	}
	return nil
}

// nodeAlias are one node's alias tables, shaped like its weight table:
// slots over the flat segments — shared with the predecessor for as
// long as the flat arrays are — and slots over the overlay's.
type nodeAlias struct {
	flat, ov *aliasSlots
}

// newNodeAlias returns the slots of flat table t.
func newNodeAlias(t *join.WeightTable, aliasMin int) nodeAlias {
	return nodeAlias{flat: flatAliasSlots(t, aliasMin), ov: &aliasSlots{}}
}

// find returns the slot of the segment WeightTable.Segment serves for
// ent: an overlaid entry reaching the threshold always has an overlay
// slot, so the flat slots are asked only about untouched entries.
func (a *nodeAlias) find(ent int) *atomic.Pointer[rng.Alias] {
	if len(a.ov.ents) > 0 {
		if s := a.ov.find(ent); s != nil {
			return s
		}
	}
	return a.flat.find(ent)
}

// table returns entry ent's alias table, building it from the segment's
// running weight sums and publishing it on first use. Racing builders
// construct identical tables (the build is deterministic in cum); the
// first CAS wins and everyone shares its table. Exactness caveat: the
// table normalizes its per-row probabilities in float64, so above the
// threshold individual rows carry a relative error up to ~2^-53 — the
// sub-threshold drawBounded path is the one that is exact for every
// representable total.
func (a *nodeAlias) table(ent int, cum []int64) *rng.Alias {
	s := a.find(ent)
	if t := s.Load(); t != nil {
		return t
	}
	s.CompareAndSwap(nil, rng.NewAliasCum(cum))
	return s.Load()
}

// carry hands the predecessor's built tables to the slots of segments
// the patch did not recompute (touched, ascending, lists the recomputed
// entries).
func (a *aliasSlots) carry(from *nodeAlias, touched []int32) {
	for i, ent := range a.ents {
		if _, hit := slices.BinarySearch(touched, ent); hit {
			continue
		}
		if s := from.find(int(ent)); s != nil {
			a.slot[i].Store(s.Load())
		}
	}
}

// EW is the Exact Weight sampler: uniform with zero rejection on tree
// joins (cyclic joins keep a residual rejection step).
type EW struct {
	j *join.Join
	// w holds, per node, the weight table aligned to the node's
	// join-attribute index: probing is one index lookup plus two offset
	// reads — no second hash table, no per-value object. It describes
	// exactly the relation versions w.Vers: relations mutate by bumping
	// their version, the union layer detects the mismatch
	// (unionBase.dirtyJoins), and Refresh patches a successor from this
	// sampler (NewEWFrom), which shares every segment — and its alias
	// table — the mutations did not reach.
	w     *join.Weights
	alias []nodeAlias // per node
	patch join.Patch  // how w came from the predecessor's tables

	// aliasMin is the alias threshold captured at construction: the
	// fan-out at which draws switch from prefix sums to alias tables.
	// A successor (NewEWFrom) patches from this sampler only when built
	// at the same threshold.
	aliasMin int
}

// NewEW precomputes exact weights for j with the default alias
// threshold.
func NewEW(j *join.Join) *EW { return NewEWAlias(j, DefaultAliasThreshold) }

// NewEWAlias precomputes exact weights for j with an explicit alias
// threshold: the fan-out at which draws build alias tables
// (0 = always, NeverAlias = never).
func NewEWAlias(j *join.Join, aliasMin int) *EW { return NewEWFrom(j, aliasMin, nil) }

// NewEWFrom is NewEWAlias given the sampler the join drew from before
// its relations last mutated (nil, or one at another threshold, builds
// cold): the weights are patched from prev's (join.PatchWeights) instead
// of recomputed, and untouched segments keep the alias tables prev's
// draws already built. The draws
// equal a cold build's, seed for seed: every segment holds the rows and
// running sums a cold build computes.
func NewEWFrom(j *join.Join, aliasMin int, prev *EW) *EW {
	var from *join.Weights
	if prev != nil && prev.j == j && prev.aliasMin == aliasMin {
		from = prev.w
	}
	w, patch := j.PatchWeights(from)
	e := &EW{j: j, w: w, alias: make([]nodeAlias, len(w.Nodes)), patch: patch, aliasMin: aliasMin}
	for k := range w.Nodes {
		t := &w.Nodes[k]
		if patch.Rebuilt { // flat tables
			e.alias[k] = newNodeAlias(t, aliasMin)
			continue
		}
		was := &prev.alias[k]
		if len(patch.Touched[k]) == 0 {
			e.alias[k] = *was // the predecessor's table, untouched
			continue
		}
		if patch.Folded[k] { // a flat table
			e.alias[k] = newNodeAlias(t, aliasMin)
			e.alias[k].flat.carry(was, patch.Touched[k])
			continue
		}
		e.alias[k] = nodeAlias{flat: was.flat, ov: overlaySlots(t, was, patch.Touched[k], aliasMin)}
	}
	return e
}

// Patch reports how the sampler's weight tables were derived from its
// predecessor's.
func (e *EW) Patch() join.Patch { return e.patch }

// Weights returns the weight tables the sampler draws from.
func (e *EW) Weights() *join.Weights { return e.w }

// Method implements Sampler.
func (e *EW) Method() string { return "EW" }

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
// weight tables (and their lazily built alias tables) were built over;
// a mismatch with the join's current StateVersions means the tables
// describe stale data and the sampler must be rebuilt (which Refresh
// does for dirty joins).
func (e *EW) StateVersions() []uint64 { return e.w.Vers }

// drawRow is the row selection of every EW draw, over entry ent of node
// k: alias table at or above the threshold, exact prefix-sum draw below
// it. The choice depends only on the fan-out and the sampler's captured
// threshold, so streams stay deterministic regardless of which run
// triggered an alias build. ok is false on an empty segment.
func (e *EW) drawRow(k, ent int, g *rng.RNG) (row int, ok bool) {
	rows, cum := e.w.Nodes[k].Segment(ent)
	if len(rows) == 0 {
		return 0, false
	}
	if len(rows) >= e.aliasMin {
		return int(rows[e.alias[k].table(ent, cum).Draw(g)]), true
	}
	return int(rows[drawBounded(cum, g)]), true
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
