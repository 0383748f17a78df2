// Package join implements the join engine the union-sampling framework
// runs on: join trees over base relations (chain and acyclic joins),
// cyclic joins via skeleton/residual decomposition (§8.2), full-join
// enumeration (the FullJoinUnion ground truth of §9), membership tests
// over output tuples, and output-tuple identity keys.
//
// A Join is a rooted tree of relations. Node 0 is the root; every other
// node joins its parent on one shared attribute name, following the
// paper's convention that join attributes are standardized to the same
// name (§2). The output schema is the union of all relation attributes
// in first-appearance order, so distinct base-tuple combinations yield
// distinct output tuples whenever base relations are duplicate-free —
// matching the paper's "no duplicates in each join" assumption (§3).
package join

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sampleunion/internal/relation"
)

// Node is one relation in a join tree together with its tree linkage.
type Node struct {
	Rel           *relation.Relation
	Parent        int    // index of parent node; -1 for the root
	Attr          string // join attribute shared with the parent; "" for root
	AttrPos       int    // position of Attr in Rel's schema
	ParentAttrPos int    // position of Attr in the parent relation's schema
	Children      []int  // child node indexes

	// emit lists (relation attr position, output position) pairs for the
	// output columns this node is responsible for filling.
	emit [][2]int
	// proj[i] is the output position of Rel's i-th attribute. Every
	// attribute of every relation appears in the output.
	proj []int
}

// Join is an executable join query. Build it with NewChain, NewTree, or
// NewCyclic.
type Join struct {
	name  string
	nodes []Node
	res   *Residual // non-nil for cyclic joins
	out   *relation.Schema

	// membership holds the per-relation row sets behind Contains:
	// built on first probe (exactly once under concurrent
	// first use, guarded by memMu) and republished when a base
	// relation's version moves (Relation.Append invalidation).
	membership atomic.Pointer[membershipTables]
	memMu      sync.Mutex
	// memberFolds counts member tables a reconcile built again from the
	// snapshot instead of extending their delta.
	memberFolds atomic.Uint64
	// scratch is the one patchScratch a PatchWeights of this join takes
	// and puts back (a concurrent second patch makes its own), held where
	// the collector does not drop it between refreshes.
	scratch atomic.Pointer[patchScratch]
}

// Name returns the join's name.
func (j *Join) Name() string { return j.name }

// OutputSchema returns the schema of result tuples.
func (j *Join) OutputSchema() *relation.Schema { return j.out }

// Nodes returns the join-tree nodes. The slice is shared; treat it as
// read-only.
func (j *Join) Nodes() []Node { return j.nodes }

// ResidualPart returns the residual of a cyclic join, or nil.
func (j *Join) ResidualPart() *Residual { return j.res }

// Relations returns the base relations in node order (the residual's
// current materialized relation included last when present).
func (j *Join) Relations() []*relation.Relation {
	out := make([]*relation.Relation, 0, len(j.nodes)+1)
	for i := range j.nodes {
		out = append(out, j.nodes[i].Rel)
	}
	if j.res != nil {
		out = append(out, j.res.Rel())
	}
	return out
}

// StateVersions snapshots the mutation versions of everything this
// join's derived state depends on: the tree relations plus (for cyclic
// joins) the residual's member base relations. Prepared samplers store
// it and compare against a fresh snapshot to decide whether a refresh
// must reconcile this join.
func (j *Join) StateVersions() []uint64 {
	out := make([]uint64, 0, len(j.nodes)+4)
	for i := range j.nodes {
		out = append(out, j.nodes[i].Rel.Version())
	}
	if j.res != nil {
		for _, s := range j.res.src {
			out = append(out, s.Version())
		}
	}
	return out
}

// Moved reports whether anything StateVersions snapshots mutated since
// vers was taken. It reads the versions in place and allocates nothing.
func (j *Join) Moved(vers []uint64) bool {
	k := 0
	moved := func(r *relation.Relation) bool {
		k++
		return k > len(vers) || vers[k-1] != r.Version()
	}
	for i := range j.nodes {
		if moved(j.nodes[i].Rel) {
			return true
		}
	}
	return j.res != nil && slices.ContainsFunc(j.res.src, moved)
}

// NewChain builds the chain join rels[0] ⋈ rels[1] ⋈ ... where rels[i]
// joins rels[i-1] on attrs[i-1]; len(attrs) must be len(rels)-1.
func NewChain(name string, rels []*relation.Relation, attrs []string) (*Join, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("join %s: no relations", name)
	}
	if len(attrs) != len(rels)-1 {
		return nil, fmt.Errorf("join %s: %d relations need %d join attributes, got %d",
			name, len(rels), len(rels)-1, len(attrs))
	}
	parent := make([]int, len(rels))
	parent[0] = -1
	joinAttrs := make([]string, len(rels))
	for i := 1; i < len(rels); i++ {
		parent[i] = i - 1
		joinAttrs[i] = attrs[i-1]
	}
	return NewTree(name, rels, parent, joinAttrs)
}

// NewTree builds an acyclic join from an explicit tree: parent[i] is the
// parent node index of rels[i] (-1 exactly for i == 0, and parent[i] < i
// so the slice is already topological), and attrs[i] is the attribute
// joining rels[i] to its parent (ignored for the root).
func NewTree(name string, rels []*relation.Relation, parent []int, attrs []string) (*Join, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("join %s: no relations", name)
	}
	if len(parent) != len(rels) || len(attrs) != len(rels) {
		return nil, fmt.Errorf("join %s: parent/attrs length mismatch", name)
	}
	j := &Join{name: name, nodes: make([]Node, len(rels))}
	for i, r := range rels {
		n := Node{Rel: r, Parent: parent[i], Attr: "", AttrPos: -1, ParentAttrPos: -1}
		if i == 0 {
			if parent[0] != -1 {
				return nil, fmt.Errorf("join %s: node 0 must be the root", name)
			}
		} else {
			p := parent[i]
			if p < 0 || p >= i {
				return nil, fmt.Errorf("join %s: node %d has parent %d; want 0 <= parent < %d", name, i, p, i)
			}
			n.Attr = attrs[i]
			n.AttrPos = r.Schema().Index(attrs[i])
			if n.AttrPos < 0 {
				return nil, fmt.Errorf("join %s: relation %s lacks join attribute %q", name, r.Name(), attrs[i])
			}
			n.ParentAttrPos = rels[p].Schema().Index(attrs[i])
			if n.ParentAttrPos < 0 {
				return nil, fmt.Errorf("join %s: parent relation %s lacks join attribute %q", name, rels[p].Name(), attrs[i])
			}
		}
		j.nodes[i] = n
	}
	for i := 1; i < len(j.nodes); i++ {
		p := j.nodes[i].Parent
		j.nodes[p].Children = append(j.nodes[p].Children, i)
	}
	if err := j.buildOutput(); err != nil {
		return nil, err
	}
	if err := j.validateSharedAttrs(); err != nil {
		return nil, err
	}
	return j, nil
}

// buildOutput computes the output schema and per-node emit/projection
// tables.
func (j *Join) buildOutput() error {
	for i := range j.nodes {
		j.nodes[i].emit = nil
		j.nodes[i].proj = nil
	}
	if j.res != nil {
		j.res.emit = nil
		j.res.proj = nil
	}
	var attrs []string
	pos := make(map[string]int)
	for i := range j.nodes {
		rel := j.nodes[i].Rel
		for a := 0; a < rel.Arity(); a++ {
			name := rel.Schema().Attr(a)
			if _, ok := pos[name]; !ok {
				pos[name] = len(attrs)
				attrs = append(attrs, name)
				j.nodes[i].emit = append(j.nodes[i].emit, [2]int{a, pos[name]})
			}
		}
	}
	if j.res != nil {
		// The residual schema is a deterministic function of the member
		// schemas, so reading it off the current state stays valid across
		// re-materializations.
		resSchema := j.res.Rel().Schema()
		for a := 0; a < resSchema.Len(); a++ {
			name := resSchema.Attr(a)
			if _, ok := pos[name]; !ok {
				pos[name] = len(attrs)
				attrs = append(attrs, name)
				j.res.emit = append(j.res.emit, [2]int{a, pos[name]})
			}
		}
	}
	j.out = relation.NewSchema(attrs...)
	for i := range j.nodes {
		rel := j.nodes[i].Rel
		j.nodes[i].proj = make([]int, rel.Arity())
		for a := 0; a < rel.Arity(); a++ {
			j.nodes[i].proj[a] = pos[rel.Schema().Attr(a)]
		}
	}
	if j.res != nil {
		resSchema := j.res.Rel().Schema()
		j.res.proj = make([]int, resSchema.Len())
		for a := 0; a < resSchema.Len(); a++ {
			j.res.proj[a] = pos[resSchema.Attr(a)]
		}
	}
	return nil
}

// validateSharedAttrs enforces the engine's correctness precondition:
// any attribute appearing in several tree relations must connect them
// through edges labeled with that attribute, so equality propagates and
// enumeration needs no extra runtime checks.
func (j *Join) validateSharedAttrs() error {
	holders := make(map[string][]int)
	for i := range j.nodes {
		for _, a := range j.nodes[i].Rel.Schema().Attrs() {
			holders[a] = append(holders[a], i)
		}
	}
	for attr, ns := range holders {
		if len(ns) < 2 {
			continue
		}
		// Union-find over ns using only edges labeled attr.
		parent := make(map[int]int, len(ns))
		for _, n := range ns {
			parent[n] = n
		}
		var find func(int) int
		find = func(x int) int {
			if parent[x] != x {
				parent[x] = find(parent[x])
			}
			return parent[x]
		}
		inSet := make(map[int]bool, len(ns))
		for _, n := range ns {
			inSet[n] = true
		}
		for _, n := range ns {
			p := j.nodes[n].Parent
			if p >= 0 && j.nodes[n].Attr == attr && inSet[p] {
				parent[find(n)] = find(p)
			}
		}
		root := find(ns[0])
		for _, n := range ns[1:] {
			if find(n) != root {
				return fmt.Errorf("join %s: attribute %q appears in relations %s and %s without a connecting join edge on it",
					j.name, attr, j.nodes[ns[0]].Rel.Name(), j.nodes[n].Rel.Name())
			}
		}
	}
	return nil
}

// FillOutput copies row r of node k into the output-tuple positions the
// node is responsible for. Samplers compose result tuples with it.
func (j *Join) FillOutput(k, r int, out relation.Tuple) {
	n := &j.nodes[k]
	cols := n.Rel.Cols()
	for _, e := range n.emit {
		out[e[1]] = cols[e[0]][r]
	}
}

// FillRows writes into out the output tuple of the rows a walk picked:
// rows[k] of each node k and, for a cyclic join, the residual row after
// them, read from rv, the residual state the walk read (WalkInto).
func (j *Join) FillRows(rv ResView, rows []int32, out relation.Tuple) {
	for k := range j.nodes {
		j.FillOutput(k, int(rows[k]), out)
	}
	if j.res != nil {
		rv.FillInto(int(rows[len(j.nodes)]), out)
	}
}

// ParentValue returns, for non-root node k, the join-attribute value the
// node must match given its parent's chosen row.
func (j *Join) ParentValue(k, parentRow int) relation.Value {
	n := &j.nodes[k]
	return j.nodes[n.Parent].Rel.Value(parentRow, n.ParentAttrPos)
}

// IsChain reports whether the join tree is a single path (a chain join).
func (j *Join) IsChain() bool {
	for i := range j.nodes {
		if len(j.nodes[i].Children) > 1 {
			return false
		}
	}
	return j.res == nil
}

// IsCyclic reports whether the join has a residual (was built cyclic).
func (j *Join) IsCyclic() bool { return j.res != nil }

func (j *Join) String() string {
	kind := "chain"
	if !j.IsChain() {
		kind = "acyclic"
	}
	if j.IsCyclic() {
		kind = "cyclic"
	}
	return fmt.Sprintf("%s[%s, %d relations]", j.name, kind, len(j.Relations()))
}
