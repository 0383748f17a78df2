package join

import (
	"fmt"
	"slices"

	"sampleunion/internal/relation"
)

// memberTable is one relation's membership structure: row-id sets
// checked against a snapshot the table pins. The immutable base holds
// the rows live at its build, the optional immutable delta the rows
// appended since; a row of either is a member while it is live in the
// pinned view, so a delete writes nothing. Relations untouched since the
// base build probe exactly one set; mutated relations pay one extra
// probe until the mutations since the base reach relation.FoldBudget of
// the relation's rows and the base is built again.
type memberTable struct {
	rel   *relation.Relation
	view  relation.View    // what rows read and its version
	base  *relation.RowSet // rows live at the base build
	delta *relation.RowSet // rows appended since; nil when none
	since int              // mutations since the base build
}

// count returns how many live rows hold the projection of t.
func (mt *memberTable) count(t relation.Tuple, proj []int) int {
	return mt.base.Count(mt.view, t, proj) + mt.delta.Count(mt.view, t, proj)
}

// has reports whether a live row holds the projection of t, stopping at
// the first.
func (mt *memberTable) has(t relation.Tuple, proj []int) bool {
	return mt.base.Has(mt.view, t, proj) || mt.delta.Has(mt.view, t, proj)
}

// MemberCount returns relation k's (Relations order) membership count of
// t, and how many rows its delta holds: none right after a fold.
func (j *Join) MemberCount(k int, t relation.Tuple) (count, deltaRows int) {
	mt := j.ensureMembership().tabs[k]
	return mt.count(t, nil), mt.delta.Len()
}

// MembershipBytes returns the bytes the current membership sets hold, 0
// before the first membership probe built them.
func (j *Join) MembershipBytes() int64 {
	m := j.membership.Load()
	if m == nil {
		return 0
	}
	var n int64
	for _, mt := range m.tabs {
		n += mt.base.Bytes() + mt.delta.Bytes()
	}
	return n
}

// membershipTables is the immutable product of one membership build or
// reconcile: one memberTable per tree relation (plus the residual),
// published through an atomic pointer so concurrent first use builds it
// exactly once and mutation is detected and reconciled on the next
// probe. Tables of unchanged relations are shared between generations;
// a changed relation's table is caught up by pinning the new snapshot and
// inserting the rows appended since the last pin into its delta — never
// by rescanning the relation unless the log tail is gone or the
// mutations since the base outgrew their budget.
//
// Freshness is decided from this snapshot and Relation.Version reads
// only — never from mutable Residual fields, which reconcile rewrites
// under memMu and must not be read lock-free.
type membershipTables struct {
	tabs []*memberTable // per tree node, then residual (when present)
	// resSrcVers are the residual member base relation versions at
	// build time (cyclic joins): staleness of the materialized residual
	// is read off its sources.
	resSrcVers []uint64
}

// Contains reports whether output tuple t (in this join's output schema
// order) is a result of the join — without executing the join. Every
// relation must hold a row matching t's projection onto its attributes;
// join-attribute consistency is automatic because a join attribute is
// one output column: every relation carrying it reads the same position
// of t, so the projections cannot disagree on its value. This is the
// membership primitive the random-walk estimator relies on (§6.2): "we
// already have the index for each J_i".
//
// The per-relation row sets are built on first use (exactly once, even
// under concurrent first use) and probed without allocating: projections
// are hashed through an access path, never materialized.
func (j *Join) Contains(t relation.Tuple) bool {
	m := j.ensureMembership()
	for k := range m.tabs {
		if !m.tabs[k].has(t, j.proj(k)) {
			return false
		}
	}
	return true
}

// proj returns relation k's (Relations order) output positions.
func (j *Join) proj(k int) []int {
	if k < len(j.nodes) {
		return j.nodes[k].proj
	}
	return j.res.proj
}

// AlignedProbe is a prepared membership probe: Contains for tuples in a
// fixed external schema order, with every projection composed at build
// time. Probing allocates nothing; on a prewarmed join it is safe for
// concurrent use.
type AlignedProbe struct {
	j     *Join
	projs [][]int // per relation (Relations order): positions in the schema
}

// AlignProbe prepares an AlignedProbe for tuples in the given schema
// order, which must hold exactly the join's output attributes.
func (j *Join) AlignProbe(schema *relation.Schema) (AlignedProbe, error) {
	perm, err := j.out.Perm(schema)
	if err != nil {
		return AlignedProbe{}, err
	}
	pr := AlignedProbe{j: j, projs: make([][]int, len(j.nodes))}
	if j.res != nil {
		pr.projs = append(pr.projs, nil)
	}
	for k := range pr.projs {
		for _, p := range j.proj(k) {
			pr.projs[k] = append(pr.projs[k], perm[p])
		}
	}
	return pr, nil
}

// Contains reports whether t (in the probe's schema order) is a result
// of the join.
func (p AlignedProbe) Contains(t relation.Tuple) bool {
	m := p.j.ensureMembership()
	for k, proj := range p.projs {
		if !m.tabs[k].has(t, proj) {
			return false
		}
	}
	return true
}

// Owners decides which join of a union owns a value: f(t), the first join
// whose result contains it — the cover region t belongs to (§3.1), the
// only join Algorithm 1 accepts t from, and the join whose walks count t
// towards its cover estimate (§6.2). For each join j it holds a prepared
// probe of every earlier join for tuples in j's schema order, the lower
// triangle of the union's joins; it is immutable, so runs share it.
type Owners struct {
	probes [][]AlignedProbe // probes[j][k], k < j
}

// NewOwners prepares the owner probes of a union's joins, which must
// share one output attribute set.
func NewOwners(joins []*Join) (*Owners, error) {
	o := &Owners{probes: make([][]AlignedProbe, len(joins))}
	for j, src := range joins {
		o.probes[j] = make([]AlignedProbe, j)
		for k := range j {
			p, err := joins[k].AlignProbe(src.OutputSchema())
			if err != nil {
				return nil, fmt.Errorf("join: %s not alignable to %s: %w", joins[k].Name(), src.Name(), err)
			}
			o.probes[j][k] = p
		}
	}
	return o, nil
}

// Owner returns f(t) for t, a result of join j in j's schema order: the
// lowest k < j whose result contains t, else j. The scan stops at the
// first hit and allocates nothing.
func (o *Owners) Owner(j int, t relation.Tuple) int {
	for k := range o.probes[j] {
		if o.probes[j][k].Contains(t) {
			return k
		}
	}
	return j
}

// Reowned returns Owner(j, t) after the joins marked dirty mutated, given
// owner, what Owner returned before (negative: never probed). It probes
// only what can have moved: the dirty joins below owner, which may have
// gained t, and — when owner is dirty and may have lost t — owner and
// every join after it, which the first scan never reached.
func (o *Owners) Reowned(j int, t relation.Tuple, owner int, dirty []bool) int {
	for k := range o.probes[j] {
		if !dirty[k] && k < owner {
			continue
		}
		if !dirty[k] && k == owner {
			return owner
		}
		if o.probes[j][k].Contains(t) {
			return k
		}
	}
	return j
}

// Unmoved reports whether Reowned(j, t, owner, dirty) returns owner
// without probing, whatever t: no join before owner is dirty, nor owner
// itself when it is not j.
func (o *Owners) Unmoved(j, owner int, dirty []bool) bool {
	return owner >= 0 && !slices.Contains(dirty[:min(owner+1, j)], true)
}

// ensureMembership returns the current membership tables, building them
// on first use and reconciling them when a base relation was mutated
// since the last build. The fast path is one atomic load plus one
// version read per relation. A reconcile is derived under memMu from the
// published generation, and published before memMu is released.
func (j *Join) ensureMembership() *membershipTables {
	if m := j.membership.Load(); m != nil && j.membershipFresh(m) {
		return m
	}
	j.memMu.Lock()
	defer j.memMu.Unlock()
	if m := j.membership.Load(); m != nil && j.membershipFresh(m) {
		return m
	}
	if j.res != nil && j.res.stale() {
		// A residual member base relation changed: the materialization
		// (and its link index) must reconcile before the membership
		// tables read it. Safe here: reconcile only ever runs under
		// memMu, and readers reach the residual through pinned Views.
		j.res.reconcile()
	}
	m := j.buildMembership(j.membership.Load())
	j.membership.Store(m)
	return m
}

// membershipFresh reports whether the tables match the relations'
// current versions, using only atomic Relation.Version reads against
// the immutable snapshot (it runs lock-free on every Contains).
func (j *Join) membershipFresh(m *membershipTables) bool {
	for k := range j.nodes {
		if m.tabs[k].view.Version() != j.nodes[k].Rel.Version() {
			return false
		}
	}
	if j.res != nil {
		for i, s := range j.res.src {
			if s.Version() != m.resSrcVers[i] {
				return false
			}
		}
	}
	return true
}

// FreshenResidual reconciles a cyclic join's residual materialization
// (and its link index) when member base relations changed since the
// last reconcile; it is a no-op for acyclic joins and fresh residuals.
// A fresh immutable state is published atomically, so it is safe to
// call while other goroutines sample (they keep their pinned Views).
func (j *Join) FreshenResidual() {
	if j.res == nil {
		return
	}
	// Residual bookkeeping (srcVers included) is only read or written
	// under memMu.
	j.memMu.Lock()
	defer j.memMu.Unlock()
	if j.res.stale() {
		j.res.reconcile()
	}
}

// reconcileTable returns an up-to-date table for rel, reusing old when
// possible: unchanged tables are shared, a short tail pins the new
// snapshot beside old's base and extends old's delta by the rows
// appended since old's pin (deletes only count), and everything else
// builds the base again from the pinned snapshot's live rows.
func reconcileTable(old *memberTable, rel *relation.Relation) *memberTable {
	if old == nil || old.rel != rel {
		return newMemberTable(rel, rel.Pin())
	}
	if old.view.Version() == rel.Version() {
		return old
	}
	v, tail, ok := rel.PinSince(old.view.Version())
	// The mutations since the base — the delta's rows and the dead rows
	// both sets still hold — fold back into a rebuilt base past the budget.
	if !ok || old.since+len(tail) > relation.FoldBudget(rel.Len()) {
		return newMemberTable(rel, v)
	}
	next := *old
	next.view, next.since = v, old.since+len(tail)
	if v.Rows() > old.view.Rows() {
		next.delta = old.delta.Extend(v, old.view.Rows())
	}
	return &next
}

// newMemberTable builds a table whose base holds the rows live in v.
func newMemberTable(rel *relation.Relation, v relation.View) *memberTable {
	return &memberTable{rel: rel, view: v, base: relation.NewRowSet(v, 0)}
}

// buildMembership assembles the next immutable membership snapshot,
// reconciling each relation's table against the previous generation —
// side by side: a table reads one relation and writes one slot.
func (j *Join) buildMembership(old *membershipTables) *membershipTables {
	rels := j.Relations()
	m := &membershipTables{tabs: make([]*memberTable, len(rels))}
	FanOut(0, len(rels), func(k int) {
		var prev *memberTable
		if old != nil && k < len(old.tabs) {
			prev = old.tabs[k]
		}
		m.tabs[k] = reconcileTable(prev, rels[k])
		if prev != nil && m.tabs[k].base != prev.base {
			j.memberFolds.Add(1)
		}
	})
	if j.res != nil {
		m.resSrcVers = slices.Clone(j.res.srcVers)
	}
	return m
}

// MemberRebuilds returns how many times a reconcile built a membership
// table's base again — the mutations since the base outgrew their fold budget,
// or the mutation log no longer reached back to it — rather than
// extending its delta: the reconciles that cost O(rows).
func (j *Join) MemberRebuilds() uint64 { return j.memberFolds.Load() }

// PrewarmMembership forces the membership tables; after it returns,
// concurrent Contains probes only read shared state until a relation
// mutates. core.BuildShared forces them for every join of a union but
// the last, which no owner probe asks: its tables build on the first
// Contains, under the same lock.
func (j *Join) PrewarmMembership() { j.ensureMembership() }
