package join

import (
	"fmt"

	"sampleunion/internal/relation"
)

// Rebind returns a structural copy of the join with every relation
// replaced by sub(rel) — tree edges, join attributes, and (for cyclic
// joins) residual links are preserved; only the row sets change. sub
// may return its argument to share a relation unchanged; the returned
// relation must keep the original's schema. The shard-parallel engine
// uses Rebind to instantiate one join per shard, substituting hash
// fragments for the relations that carry the partition attribute, and
// PushDown to substitute filtered relations.
//
// For a cyclic join, sub is also applied to the residual's current
// materialization; the rebound residual is untracked, so a rebound
// cyclic join must be rebuilt — not reconciled — when its original's
// member relations mutate. A link attribute missing from the rebound
// output is an error.
func Rebind(j *Join, name string, sub func(*relation.Relation) (*relation.Relation, error)) (*Join, error) {
	nodes := j.Nodes()
	newRels := make([]*relation.Relation, len(nodes))
	parents := make([]int, len(nodes))
	attrs := make([]string, len(nodes))
	for i := range nodes {
		var err error
		newRels[i], err = sub(nodes[i].Rel)
		if err != nil {
			return nil, err
		}
		parents[i] = nodes[i].Parent
		attrs[i] = nodes[i].Attr
	}
	out, err := NewTree(name, newRels, parents, attrs)
	if err != nil {
		return nil, err
	}
	if j.res != nil {
		rres, err := sub(j.res.Rel())
		if err != nil {
			return nil, err
		}
		res, err := rebuildResidual(rres, j.res.LinkAttrs)
		if err != nil {
			return nil, err
		}
		out.res = res
		if err := out.buildOutput(); err != nil {
			return nil, err
		}
		res.linkOut = make([]int, len(res.LinkAttrs))
		for i, a := range res.LinkAttrs {
			p := out.out.Index(a)
			if p < 0 {
				return nil, fmt.Errorf("join %s: link attribute %q lost in %s", j.name, a, name)
			}
			res.linkOut[i] = p
		}
		out.membership.Store(nil)
	}
	return out, nil
}
