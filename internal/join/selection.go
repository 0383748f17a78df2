package join

import (
	"fmt"

	"sampleunion/internal/relation"
)

// This file implements §8.3's first alternative for selection
// predicates: pushing them down to base relations during preprocessing,
// so sampling runs over filtered relations. The second alternative —
// enforcing predicates during sampling by rejection — lives in the
// sampling layer (core.SampleWhere), since it is a property of the
// sampler, not of the join.

// PushDown returns a copy of the join whose relations are filtered by
// the conjunction of the given predicates. Each predicate must be
// attributable to base relations: every attribute it references must
// appear in at least one relation, and the predicate is applied to
// every relation containing all of its attributes. Joins keep their
// shape (tree edges, residual links); only the row sets shrink.
//
// Pushing a single-attribute predicate to every holder of the
// attribute is equivalence-preserving because shared attribute names
// are join-connected (enforced at Build), so all holders agree on the
// attribute's value in any result.
func PushDown(j *Join, preds ...relation.Predicate) (*Join, error) {
	if len(preds) == 0 {
		return j, nil
	}
	filter := func(r *relation.Relation) (*relation.Relation, error) {
		out := r
		for _, p := range preds {
			attrs, err := predicateAttrs(p)
			if err != nil {
				return nil, err
			}
			applies := true
			for _, a := range attrs {
				if !out.Schema().Has(a) {
					applies = false
					break
				}
			}
			if !applies {
				continue
			}
			out = out.Filter(out.Name()+"|σ", p)
		}
		return out, nil
	}
	// Validate every predicate lands somewhere.
	rels := j.Relations()
	for _, p := range preds {
		attrs, err := predicateAttrs(p)
		if err != nil {
			return nil, err
		}
		placed := false
		for _, r := range rels {
			ok := true
			for _, a := range attrs {
				if !r.Schema().Has(a) {
					ok = false
					break
				}
			}
			if ok {
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("join %s: predicate %s references attributes of no single relation; enforce it during sampling instead (§8.3)", j.name, p)
		}
	}
	return Rebind(j, j.name+"|σ", filter)
}

// rebuildResidual re-indexes a filtered or rebound residual relation.
// The result is untracked (no member sources): a derived join is static,
// so there is nothing to reconcile against.
func rebuildResidual(rel *relation.Relation, links []string) (*Residual, error) {
	res := &Residual{LinkAttrs: links}
	res.linkPos = make([]int, len(links))
	for i, a := range links {
		p := rel.Schema().Index(a)
		if p < 0 {
			return nil, fmt.Errorf("join: residual lost link attribute %q", a)
		}
		res.linkPos[i] = p
	}
	res.state.Store(res.buildState(rel))
	return res, nil
}

// predicateAttrs extracts the attribute names a predicate references.
// Composite predicates are flattened; an unknown predicate type is an
// error so PushDown never silently misapplies a filter.
func predicateAttrs(p relation.Predicate) ([]string, error) {
	switch q := p.(type) {
	case relation.Cmp:
		return []string{q.Attr}, nil
	case relation.In:
		return []string{q.Attr}, nil
	case relation.True:
		return nil, nil
	case relation.Not:
		return predicateAttrs(q.P)
	case relation.And:
		var out []string
		for _, sub := range q {
			as, err := predicateAttrs(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, as...)
		}
		return out, nil
	case relation.Or:
		var out []string
		for _, sub := range q {
			as, err := predicateAttrs(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, as...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("join: cannot push down predicate of type %T", p)
	}
}
