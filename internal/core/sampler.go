package core

import (
	"errors"
	"fmt"
	"slices"

	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/relation"
)

// JoinMethod selects the single-join sampling subroutine (§3.2).
type JoinMethod int

const (
	// MethodEW uses Exact Weight sampling: zero rejection, setup cost
	// linear in the data.
	MethodEW JoinMethod = iota
	// MethodEO uses Extended Olken sampling: cheap setup, rejection
	// rate grows with skew.
	MethodEO
)

// newJoinSampler builds the subroutine sampler for one join. prev is the
// sampler the join drew from before its relations mutated, nil on a
// first build: an EW sampler patches its weight tables from an EW
// predecessor's instead of recomputing them. Only EW fails, on a join
// whose exact weights overflow (join.ErrWeightOverflow).
func newJoinSampler(j *join.Join, m JoinMethod, prev joinsample.Sampler) (joinsample.Sampler, error) {
	if m == MethodEO {
		return joinsample.NewEO(j), nil
	}
	was, _ := prev.(*joinsample.EW)
	return joinsample.NewEWFrom(j, was)
}

// unionBase holds what every union sampler shares: the joins, their
// subroutine samplers, tuple-key alignment to the reference output
// schema (the first join's) so one value has one key across joins, and
// the owner probes the accept rule decides f(t) with (join.Owners).
// Everything here is read-only after construction and shared between
// concurrent runs; all per-draw scratch lives in the runs (drawScratch).
type unionBase struct {
	joins    []*join.Join
	method   JoinMethod // the subroutine every join samples with
	samplers []joinsample.Sampler
	// pending[i]: samplers[i] does not describe join i's current data —
	// never built (nil), or left by reconciled as the predecessor its
	// rebuild patches from. Always false once the base is published.
	pending []bool
	ref     *relation.Schema
	perms   [][]int // perms[i][k] = position of ref attr k in join i's schema; nil when equal
	owners  *join.Owners

	// vers[i] snapshots join i's relation versions when its subroutine
	// sampler was built; Refresh compares against fresh snapshots to
	// rebuild only the dirty joins' samplers.
	vers [][]uint64

	maxNodes int // scratch sizing: most tree nodes over all joins
}

// newUnionBase builds the shared join machinery for one subroutine,
// every sampler pending: buildPending builds each, once.
func newUnionBase(joins []*join.Join, method JoinMethod) (*unionBase, error) {
	if err := ValidateUnion(joins); err != nil {
		return nil, err
	}
	b := &unionBase{
		joins:    joins,
		method:   method,
		samplers: make([]joinsample.Sampler, len(joins)),
		pending:  make([]bool, len(joins)),
		ref:      joins[0].OutputSchema(),
		perms:    make([][]int, len(joins)),
		vers:     make([][]uint64, len(joins)),
	}
	for i, j := range joins {
		// A cyclic join whose residual members mutated since
		// construction must reconcile before samplers snapshot its
		// degrees and link index.
		j.FreshenResidual()
		b.vers[i] = j.StateVersions()
		b.pending[i] = true
		if !j.OutputSchema().Equal(b.ref) {
			perm, err := b.ref.Perm(j.OutputSchema())
			if err != nil {
				return nil, fmt.Errorf("core: join %s: %w", j.Name(), err)
			}
			b.perms[i] = perm
		}
		if n := len(j.Nodes()); n > b.maxNodes {
			b.maxNodes = n
		}
	}
	owners, err := join.NewOwners(joins)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	b.owners = owners
	return b, nil
}

// stale reports whether any underlying relation mutated since the
// version snapshot vers was taken (vers[i] is joins[i]'s StateVersions at
// build or last refresh). It allocates nothing.
func stale(joins []*join.Join, vers [][]uint64) bool {
	for i, j := range joins {
		if j.Moved(vers[i]) {
			return true
		}
	}
	return false
}

// dirtyJoins reports, per join, whether it is stale: nil when none is.
func dirtyJoins(joins []*join.Join, vers [][]uint64) []bool {
	if !stale(joins, vers) {
		return nil
	}
	dirty := make([]bool, len(joins))
	for i, j := range joins {
		dirty[i] = j.Moved(vers[i])
	}
	return dirty
}

// reconciled returns a copy of the base whose dirty joins have
// reconciled residuals and pending samplers — buildPending rebuilds each
// once, from the sampler it replaces; clean joins share their samplers
// with the old base. The copy's per-join slices are private, so it
// rebuilds individual joins without touching the original; schema
// alignment and owner probes are version-independent and shared
// as-is. Nothing dirty: the base itself.
func (b *unionBase) reconciled() (*unionBase, []bool, bool) {
	dirty := dirtyJoins(b.joins, b.vers)
	if dirty == nil {
		return b, nil, false
	}
	cp := *b
	nb := &cp
	nb.samplers = slices.Clone(b.samplers)
	nb.pending = slices.Clone(b.pending)
	nb.vers = slices.Clone(b.vers)
	for i, d := range dirty {
		if !d {
			continue
		}
		nb.joins[i].FreshenResidual()
		nb.vers[i] = nb.joins[i].StateVersions()
		nb.pending[i] = true
	}
	return nb, dirty, true
}

// buildPending builds exactly the samplers that are pending, each from
// the sampler it replaces and beside the other joins' (an EW weight
// table reads its own join and writes its own slot). Only safe before
// the base is published to runs. A join whose build fails stays pending,
// and its error is returned, joined with any other's.
func (b *unionBase) buildPending() error {
	errs := make([]error, len(b.joins))
	join.FanOut(0, len(b.joins), func(i int) {
		if b.pending[i] {
			s, err := newJoinSampler(b.joins[i], b.method, b.samplers[i])
			if errs[i] = err; err == nil {
				b.samplers[i], b.pending[i] = s, false
			}
		}
	})
	return errors.Join(errs...)
}

// patchStats sums what the EW samplers of the dirty joins report about
// their rebuild into st.
func (b *unionBase) patchStats(dirty []bool, st *RefreshStats) {
	for i, d := range dirty {
		if !d {
			continue
		}
		st.DirtyJoins++
		ew, ok := b.samplers[i].(*joinsample.EW)
		if !ok {
			continue
		}
		p := ew.Patch()
		st.WeightBytes += p.Bytes
		if p.Rebuilt {
			st.JoinsRebuilt++
			continue
		}
		for k := range p.Touched {
			st.SegmentsPatched += len(p.Touched[k])
			if p.Folded[k] {
				st.NodesRebuilt++
			}
		}
	}
}

// drawScratch is the per-run buffer set behind the allocation-free draw
// path: subroutine samplers fill out/rowOf in place, and only tuples
// actually entering a result buffer are cloned. Each run owns its own
// scratch, so shared samplers stay race-free.
type drawScratch struct {
	out   relation.Tuple
	rowOf []int
	// many is the one-slot batch view of out handed to the subroutines'
	// SampleManyInto: union-level accept/reject runs per candidate, so
	// the union engines batch at the call level (one devirtualized
	// acceptance loop per candidate) while keeping per-tuple join
	// selection — which is what preserves sample independence.
	many []relation.Tuple
}

func (b *unionBase) newScratch() drawScratch {
	s := drawScratch{
		out:   make(relation.Tuple, b.ref.Len()),
		rowOf: make([]int, b.maxNodes),
	}
	s.many = []relation.Tuple{s.out}
	return s
}

// alignedAppend appends the values of t (a tuple in join i's schema
// order) to arena in reference schema order. Accepted draws ride this
// zero-clone path: buffered samples live as k-wide spans of a run-owned
// arena and copy out as one flat allocation per batch, instead of one
// tuple allocation per accepted draw.
func (b *unionBase) alignedAppend(i int, t relation.Tuple, arena []relation.Value) []relation.Value {
	perm := b.perms[i]
	if perm == nil {
		return append(arena, t...)
	}
	for _, p := range perm {
		arena = append(arena, t[p])
	}
	return arena
}
