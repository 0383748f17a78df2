package relation

import "fmt"

// This file implements the relation-splitting utility UQ3 is built on:
// vertical splits (projections that share a linking attribute).

// VerticalSplit cuts r into two relations: left keeps leftAttrs and
// right keeps rightAttrs. The two attribute lists must cover the schema
// and share at least one attribute (the rejoining key), so that
// left ⋈ right losslessly reconstructs r when the shared attributes form
// a key. Duplicate rows in each half are eliminated.
func VerticalSplit(r *Relation, leftName string, leftAttrs []string, rightName string, rightAttrs []string) (*Relation, *Relation, error) {
	shared := false
	seen := make(map[string]bool, len(leftAttrs)+len(rightAttrs))
	for _, a := range leftAttrs {
		seen[a] = true
	}
	for _, a := range rightAttrs {
		if seen[a] {
			shared = true
		}
		seen[a] = true
	}
	if !shared {
		return nil, nil, fmt.Errorf("relation: vertical split of %s shares no attribute", r.Name())
	}
	for _, a := range r.Schema().Attrs() {
		if !seen[a] {
			return nil, nil, fmt.Errorf("relation: vertical split of %s drops attribute %q", r.Name(), a)
		}
	}
	left, err := r.DistinctProject(leftName, leftAttrs)
	if err != nil {
		return nil, nil, err
	}
	right, err := r.DistinctProject(rightName, rightAttrs)
	if err != nil {
		return nil, nil, err
	}
	return left, right, nil
}
