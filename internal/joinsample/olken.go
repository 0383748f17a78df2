package joinsample

import (
	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// EO is the Extended Olken sampler: uniform samples via accept/reject
// against max-degree upper bounds. Cheap to set up (only max degrees),
// but the rejection rate grows with skew — the trade-off the paper's
// evaluation quantifies (Fig 5).
type EO struct {
	j *join.Join
	// maxDeg[k] is M_attr(R_k) for non-root node k.
	maxDeg []int
	bound  float64
}

// NewEO prepares an Extended Olken sampler for j.
func NewEO(j *join.Join) *EO {
	nodes := j.Nodes()
	e := &EO{j: j, maxDeg: make([]int, len(nodes))}
	for k := 1; k < len(nodes); k++ {
		n := &nodes[k]
		e.maxDeg[k] = n.Rel.MaxDegree(n.AttrPos)
	}
	e.bound = j.OlkenBound()
	return e
}

// Join implements Sampler.
func (e *EO) Join() *join.Join { return e.j }

// SizeEstimate implements Sampler: the extended Olken upper bound on
// |J| (§3.2), which is what the histogram-based instantiation plugs
// into the framework.
func (e *EO) SizeEstimate() float64 { return e.bound }

// attempt is one accept/reject walk into caller-owned scratch. Every
// accepted walk is a uniform draw from the join result: the probability
// of a particular result is 1/(|R_root| · Π M) regardless of the path
// taken.
func (e *EO) attempt(out relation.Tuple, rowOf []int, g *rng.RNG) bool {
	nodes := e.j.Nodes()
	root := nodes[0].Rel
	r0, ok := liveRoot(root, g)
	if !ok {
		return false
	}
	rowOf[0] = r0
	e.j.FillOutput(0, rowOf[0], out)
	for k := 1; k < len(nodes); k++ {
		n := &nodes[k]
		v := e.j.ParentValue(k, rowOf[n.Parent])
		matches := n.Rel.Matches(n.AttrPos, v)
		d := len(matches)
		if d == 0 {
			return false // dangling tuple: zero weight (§3.2)
		}
		if !g.Bernoulli(float64(d) / float64(e.maxDeg[k])) {
			return false
		}
		rowOf[k] = matches[g.Intn(d)]
		e.j.FillOutput(k, rowOf[k], out)
	}
	return finishResidual(e.j, out, g)
}

// SampleManyInto implements Sampler: the accept/reject walk loop runs
// inside one call — EO's rejection rate grows with skew, so amortizing
// the per-attempt call overhead matters most here.
func (e *EO) SampleManyInto(out []relation.Tuple, rowOf []int, maxTries int, g *rng.RNG) (filled, tries int) {
	for filled < len(out) && tries < maxTries {
		tries++
		if e.attempt(out[filled], rowOf, g) {
			filled++
		}
	}
	return filled, tries
}

// Walker performs Wander Join random walks over the join data graph
// (§6.1): each successful walk returns a result tuple together with its
// exact sampling probability p(t) = 1/|R_root| · Π 1/d_i. Walks are
// not uniform; they feed the Horvitz–Thompson estimators of §6 and the
// reuse pool of §7.
type Walker struct {
	j *join.Join
}

// NewWalker prepares a Wander Join walker for j.
func NewWalker(j *join.Join) *Walker { return &Walker{j: j} }

// Join returns the underlying join.
func (w *Walker) Join() *join.Join { return w.j }

// WalkInto performs one random walk into caller-owned scratch: out of
// the join's output schema length, rowOf of one entry per node and, for
// a cyclic join, one more for the residual row, which it picks from rv,
// the residual state the walk reads (join.Residual.View; ignored for an
// acyclic join). rowOf is then all a later reader needs to rebuild out
// (join.FillRows): storage is monotone, so the rows keep their values.
// ok is false when the walk dies on a dangling tuple (p(t) = 0 in the
// paper's backtracking bookkeeping); a dead walk may leave the buffers
// partially written.
func (w *Walker) WalkInto(rv join.ResView, out relation.Tuple, rowOf []int32, g *rng.RNG) (float64, bool) {
	nodes := w.j.Nodes()
	root := nodes[0].Rel
	r0, ok := liveRoot(root, g)
	if !ok {
		return 0, false
	}
	rowOf[0] = int32(r0)
	w.j.FillOutput(0, r0, out)
	p := 1.0 / float64(root.LiveLen())
	for k := 1; k < len(nodes); k++ {
		n := &nodes[k]
		v := w.j.ParentValue(k, int(rowOf[n.Parent]))
		matches := n.Rel.Matches(n.AttrPos, v)
		d := len(matches)
		if d == 0 {
			return 0, false
		}
		rowOf[k] = int32(matches[g.Intn(d)])
		w.j.FillOutput(k, int(rowOf[k]), out)
		p /= float64(d)
	}
	if w.j.IsCyclic() {
		matches := rv.Match(out)
		d := len(matches)
		if d == 0 {
			return 0, false
		}
		rowOf[len(nodes)] = int32(matches[g.Intn(d)])
		rv.FillInto(int(rowOf[len(nodes)]), out)
		p /= float64(d)
	}
	return p, true
}
