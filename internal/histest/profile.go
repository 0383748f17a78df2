// Package histest implements the histogram-based instantiation of the
// union-sampling framework (§5, §8): overlap upper bounds for chain,
// acyclic, and cyclic joins computed from column statistics only — the
// decentralized setting where full data access is infeasible (data
// markets, data in the wild). The statistics are the ones a relation's
// attribute indexes already maintain under appends and deletes: each
// value's live degree, the distinct count and the maximum degree. The
// warm-up reads them and counts nothing again.
//
// The pipeline is: convert every join in the union to a common chain
// "profile" — either directly (equi-length chains, §5.1) or through the
// splitting method over a shared template (§5.2, §8.1) — then bound the
// overlap of any subset of joins with the dynamic-programming recurrence
// of Theorem 4, and feed the bounds into the k-overlap/union-size
// machinery of internal/overlap.
package histest

import (
	"fmt"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
)

// Entry is one element of a chain profile: the chain relation (or split
// pair source), whose attribute indexes supply its degree statistics,
// plus how it joins the previous element.
type Entry struct {
	Rel *relation.Relation
	// JoinAttr joins this entry to the previous one; "" for the first.
	JoinAttr string
	// Fake marks a fake join (§5.2): this entry and the previous one
	// were split from the same original relation, so the join merely
	// reconstructs it and contributes degree factor 1 in Theorem 4.
	Fake bool
	// PathFactor inflates degree statistics for synthesized entries:
	// when no single relation holds both template attributes, the pair
	// is derived by pre-joining along the join-tree path (§8.1.2) and
	// its degrees are bounded by the product of max degrees along that
	// path. PathFactor is 1 for ordinary entries.
	PathFactor float64
}

// Profile is the chain view of one join used by the estimator: entries
// in chain order. All profiles in one union share length and join
// attributes, which profile construction guarantees.
type Profile struct {
	Join    *join.Join
	Entries []Entry
}

// ProfileFromChain builds the direct profile of a chain join: its
// relations in path order (§5.1, no splitting).
func ProfileFromChain(j *join.Join) (*Profile, error) {
	if !j.IsChain() {
		return nil, fmt.Errorf("histest: join %s is not a chain", j.Name())
	}
	nodes := j.Nodes()
	p := &Profile{Join: j, Entries: make([]Entry, len(nodes))}
	for i := range nodes {
		if i > 0 && nodes[i].Parent != i-1 {
			return nil, fmt.Errorf("histest: join %s chain nodes out of path order", j.Name())
		}
		p.Entries[i] = Entry{Rel: nodes[i].Rel, JoinAttr: nodes[i].Attr, PathFactor: 1}
	}
	return p, nil
}

// AlignedChains reports whether the joins form the base case of §5.1:
// all chains of the same length with the same join-attribute sequence
// and position-wise identical relation schemas.
func AlignedChains(joins []*join.Join) bool {
	if len(joins) == 0 {
		return false
	}
	first := joins[0]
	if !first.IsChain() {
		return false
	}
	n0 := first.Nodes()
	for _, j := range joins[1:] {
		if !j.IsChain() {
			return false
		}
		nj := j.Nodes()
		if len(nj) != len(n0) {
			return false
		}
		for i := range nj {
			if nj[i].Attr != n0[i].Attr {
				return false
			}
			if !nj[i].Rel.Schema().Equal(n0[i].Rel.Schema()) {
				return false
			}
		}
	}
	return true
}

// ProfileFromTemplate builds the split profile of a join over a shared
// template (an ordering of the output attributes): entry i describes
// the two-attribute sub-relation (template[i], template[i+1]). When a
// single relation holds both attributes the entry carries that relation;
// otherwise the entry is synthesized by combining degrees along the
// join-tree path between holders (§8.1.2).
func ProfileFromTemplate(j *join.Join, template []string, pre *Precomputed) (*Profile, error) {
	if len(template) < 2 {
		return nil, fmt.Errorf("histest: template needs at least 2 attributes")
	}
	if pre == nil {
		pre = Precompute(j)
	}
	p := &Profile{Join: j, Entries: make([]Entry, len(template)-1)}
	prevSrc := -1
	for i := 0; i+1 < len(template); i++ {
		a, b := template[i], template[i+1]
		src := pre.holderOfBoth(a, b)
		e := Entry{JoinAttr: a, PathFactor: 1}
		if i == 0 {
			e.JoinAttr = ""
		}
		if src >= 0 {
			e.Rel = pre.rels[src]
			e.Fake = i > 0 && src == prevSrc
			prevSrc = src
		} else {
			// Synthesized pair (§8.1.2): anchor on a holder of the
			// attribute Theorem 4 will query on this entry — the right
			// attribute for the chain head (K(1) uses A_1 = template[1]),
			// the left attribute everywhere else — and inflate degree
			// statistics by the max-degree product along the join path
			// to the other attribute's holder.
			qa, other := a, b
			if i == 0 {
				qa, other = b, a
			}
			anchor, factor, err := pre.pathFactor(qa, other)
			if err != nil {
				return nil, fmt.Errorf("histest: join %s, pair (%s,%s): %w", j.Name(), a, b, err)
			}
			e.Rel = pre.rels[anchor]
			e.PathFactor = factor
			prevSrc = -1
		}
		p.Entries[i] = e
	}
	return p, nil
}

// Precomputed caches per-join structures shared by template search and
// profile construction: the relations, attribute holders, and join-tree
// adjacency (the residual of a cyclic join counts as one extra node
// linked to the skeleton relations it shares attributes with, per
// §8.2's "treat S_R as a single relation").
type Precomputed struct {
	j       *join.Join
	rels    []*relation.Relation
	holders map[string][]int // attribute -> relation indexes holding it
	adj     [][]adjEdge      // join-graph adjacency between relations
}

type adjEdge struct {
	to   int
	attr string
}

// Precompute builds the cached view of j.
func Precompute(j *join.Join) *Precomputed {
	nodes := j.Nodes()
	total := len(nodes)
	res := j.ResidualPart()
	if res != nil {
		total++
	}
	p := &Precomputed{
		j:       j,
		rels:    make([]*relation.Relation, total),
		holders: make(map[string][]int),
		adj:     make([][]adjEdge, total),
	}
	for i := range nodes {
		p.rels[i] = nodes[i].Rel
		for _, a := range p.rels[i].Schema().Attrs() {
			p.holders[a] = append(p.holders[a], i)
		}
	}
	for i := 1; i < len(nodes); i++ {
		parent := nodes[i].Parent
		p.adj[i] = append(p.adj[i], adjEdge{to: parent, attr: nodes[i].Attr})
		p.adj[parent] = append(p.adj[parent], adjEdge{to: i, attr: nodes[i].Attr})
	}
	if res != nil {
		ri := len(nodes)
		p.rels[ri] = res.Rel()
		for _, a := range p.rels[ri].Schema().Attrs() {
			p.holders[a] = append(p.holders[a], ri)
		}
		for _, a := range res.LinkAttrs {
			for _, h := range p.holders[a] {
				if h == ri {
					continue
				}
				p.adj[ri] = append(p.adj[ri], adjEdge{to: h, attr: a})
				p.adj[h] = append(p.adj[h], adjEdge{to: ri, attr: a})
			}
		}
	}
	return p
}

// holderOfBoth returns a relation index holding both attributes, or -1.
// Preference order is the node order, which makes profile construction
// deterministic.
func (p *Precomputed) holderOfBoth(a, b string) int {
	for i, r := range p.rels {
		if r.Schema().Has(a) && r.Schema().Has(b) {
			return i
		}
	}
	return -1
}

// Dist returns the join-graph distance between the holders of two
// attributes (0 when co-located), or -1 when either attribute is
// missing. This is the Dist_j(A, A') of §8.1.1.
func (p *Precomputed) Dist(a, b string) int {
	ha, hb := p.holders[a], p.holders[b]
	if len(ha) == 0 || len(hb) == 0 {
		return -1
	}
	targets := make(map[int]bool, len(hb))
	for _, h := range hb {
		targets[h] = true
	}
	// Multi-source BFS from the holders of a.
	distOf := make([]int, len(p.rels))
	for i := range distOf {
		distOf[i] = -1
	}
	queue := make([]int, 0, len(ha))
	for _, h := range ha {
		distOf[h] = 0
		queue = append(queue, h)
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if targets[u] {
			return distOf[u]
		}
		for _, e := range p.adj[u] {
			if distOf[e.to] < 0 {
				distOf[e.to] = distOf[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return -1
}

// pathFactor returns an anchor relation holding attribute a together
// with the product of max degrees along the shortest join path from
// that anchor to a holder of b — the §8.1.2 degree combination for
// synthesized pairs.
func (p *Precomputed) pathFactor(a, b string) (anchor int, factor float64, err error) {
	ha, hb := p.holders[a], p.holders[b]
	if len(ha) == 0 || len(hb) == 0 {
		return -1, 0, fmt.Errorf("attribute %q or %q not in join", a, b)
	}
	targets := make(map[int]bool, len(hb))
	for _, h := range hb {
		targets[h] = true
	}
	type state struct {
		rel    int
		start  int
		factor float64
	}
	visited := make([]bool, len(p.rels))
	queue := make([]state, 0, len(ha))
	for _, h := range ha {
		visited[h] = true
		queue = append(queue, state{rel: h, start: h, factor: 1})
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		if targets[s.rel] {
			return s.start, s.factor, nil
		}
		for _, e := range p.adj[s.rel] {
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			ix, err := attrIndex(p.rels[e.to], e.attr)
			if err != nil {
				return -1, 0, err
			}
			m := float64(ix.MaxDegree())
			queue = append(queue, state{rel: e.to, start: s.start, factor: s.factor * m})
		}
	}
	return -1, 0, fmt.Errorf("no join path between holders of %q and %q", a, b)
}
