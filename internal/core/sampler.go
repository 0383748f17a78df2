package core

import (
	"fmt"
	"sync"

	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
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
	// MethodWJ uses Wander Join walks thinned against the Olken bound:
	// index-only setup like EO, same acceptance rate, but the walk
	// finds heavy results proportionally to fan-in and corrects
	// analytically (§3.2's third weight instantiation).
	MethodWJ
)

func (m JoinMethod) String() string {
	switch m {
	case MethodEW:
		return "EW"
	case MethodWJ:
		return "WJ"
	}
	return "EO"
}

// joinConfig is one join's subroutine configuration inside a union
// base: the sampling method plus the alias-table threshold EW draws
// build weighted-row alias tables at. Explicitly configured
// unions use one uniform config per join (uniformJoinConfigs), which
// reproduces the pre-tuning behavior exactly; an adaptive plan sets
// them per join.
type joinConfig struct {
	method   JoinMethod
	aliasMin int
}

// uniformJoinConfigs is the non-adaptive configuration: every join
// samples with the same method at the same alias threshold (<= 0
// selects the engine default).
func uniformJoinConfigs(n int, m JoinMethod, aliasMin int) []joinConfig {
	if aliasMin <= 0 {
		aliasMin = joinsample.DefaultAliasThreshold
	}
	cfgs := make([]joinConfig, n)
	for i := range cfgs {
		cfgs[i] = joinConfig{method: m, aliasMin: aliasMin}
	}
	return cfgs
}

// newJoinSampler builds the subroutine sampler for one join. prev is the
// sampler the join drew from before its relations mutated, nil on a
// first build: an EW sampler patches its weight tables from an EW
// predecessor's instead of recomputing them.
func newJoinSampler(j *join.Join, c joinConfig, prev joinsample.Sampler) joinsample.Sampler {
	switch c.method {
	case MethodEW:
		was, _ := prev.(*joinsample.EW)
		return joinsample.NewEWFrom(j, c.aliasMin, was)
	case MethodWJ:
		return joinsample.NewWJ(j)
	}
	return joinsample.NewEO(j)
}

// unionBase holds what every union sampler shares: the joins, their
// subroutine samplers, tuple-key alignment to the reference output
// schema (the first join's) so one value has one key across joins, and
// prepared membership probes for the oracle path. Everything here is
// read-only after construction and shared between concurrent runs; all
// per-draw scratch lives in the runs (drawScratch).
type unionBase struct {
	joins    []*join.Join
	cfgs     []joinConfig
	samplers []joinsample.Sampler
	// pending[i]: samplers[i] does not describe join i's current data —
	// never built (nil), or left by refreshedLazy as the predecessor its
	// rebuild patches from. Always false once the base is published.
	pending []bool
	ref     *relation.Schema
	perms   [][]int // perms[i][k] = position of ref attr k in join i's schema; nil when equal

	// probes[i][k] tests membership of a tuple in join i's schema order
	// against join k — the allocation-free path behind minContaining,
	// which only ever scans k < i, so just the lower triangle is built.
	probes [][]join.AlignedProbe

	// vers[i] snapshots join i's relation versions when its subroutine
	// sampler was built; Refresh compares against fresh snapshots to
	// rebuild only the dirty joins' samplers.
	vers [][]uint64

	maxNodes int // scratch sizing: most tree nodes over all joins
}

// newUnionBase builds the shared join machinery with one subroutine
// sampler per join, per cfgs. deferSamplers leaves the samplers nil —
// the adaptive warm-up path plans per-join configs from the warm-up
// statistics first and then builds every sampler once, via
// applyJoinConfigs, instead of building a provisional set it would
// immediately discard.
func newUnionBase(joins []*join.Join, cfgs []joinConfig, deferSamplers bool) (*unionBase, error) {
	if err := validateUnion(joins); err != nil {
		return nil, err
	}
	b := &unionBase{
		joins:    joins,
		cfgs:     cfgs,
		samplers: make([]joinsample.Sampler, len(joins)),
		pending:  make([]bool, len(joins)),
		ref:      joins[0].OutputSchema(),
		perms:    make([][]int, len(joins)),
		probes:   make([][]join.AlignedProbe, len(joins)),
		vers:     make([][]uint64, len(joins)),
	}
	for i, j := range joins {
		// A cyclic join whose residual members mutated since
		// construction must reconcile before samplers snapshot its
		// degrees and link index.
		j.FreshenResidual()
		b.vers[i] = j.StateVersions()
		if b.pending[i] = deferSamplers; !deferSamplers {
			b.samplers[i] = newJoinSampler(j, cfgs[i], nil)
		}
		if !j.OutputSchema().Equal(b.ref) {
			perm, err := alignPerm(b.ref, j)
			if err != nil {
				return nil, err
			}
			b.perms[i] = perm
		}
		if n := len(j.Nodes()); n > b.maxNodes {
			b.maxNodes = n
		}
	}
	for i, ji := range joins {
		b.probes[i] = make([]join.AlignedProbe, i)
		for k := 0; k < i; k++ {
			p, ok := joins[k].AlignProbe(ji.OutputSchema())
			if !ok {
				return nil, fmt.Errorf("core: join %s not alignable to %s", joins[k].Name(), ji.Name())
			}
			b.probes[i][k] = p
		}
	}
	return b, nil
}

// dirtyJoins reports, per join, whether any underlying relation mutated
// since the version snapshot vers was taken (vers[i] is joins[i]'s
// StateVersions at build or last refresh), and whether any did.
func dirtyJoins(joins []*join.Join, vers [][]uint64) ([]bool, bool) {
	dirty := make([]bool, len(joins))
	any := false
	for i, j := range joins {
		cur := j.StateVersions()
		for k, v := range cur {
			if k >= len(vers[i]) || vers[i][k] != v {
				dirty[i] = true
				any = true
				break
			}
		}
	}
	return dirty, any
}

// clone returns a copy of the base whose per-join slices (samplers,
// configs, version snapshots) are private, so the copy can rebuild
// individual joins without touching the original. Schema alignment and
// membership probes are version-independent and shared as-is.
func (b *unionBase) clone() *unionBase {
	nb := *b
	nb.samplers = append([]joinsample.Sampler(nil), b.samplers...)
	nb.pending = append([]bool(nil), b.pending...)
	nb.cfgs = append([]joinConfig(nil), b.cfgs...)
	nb.vers = append([][]uint64(nil), b.vers...)
	return &nb
}

// refreshed returns a copy of the base whose dirty joins have
// reconciled residuals and subroutine samplers rebuilt from their
// predecessors; clean joins share their samplers with the old base.
func (b *unionBase) refreshed() (*unionBase, []bool, bool) {
	nb, dirty, changed := b.refreshedLazy()
	if changed {
		nb.applyJoinConfigs(nb.cfgs)
	}
	return nb, dirty, changed
}

// refreshedLazy is refreshed for the adaptive path: dirty joins
// reconcile their residuals and mark their samplers pending instead of
// rebuilding them eagerly — the re-plan inside the subsequent warm-up
// rebuilds them once, under the new plan's configs.
func (b *unionBase) refreshedLazy() (*unionBase, []bool, bool) {
	dirty, any := dirtyJoins(b.joins, b.vers)
	if !any {
		return b, dirty, false
	}
	nb := b.clone()
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

// applyJoinConfigs installs a plan's per-join configs, rebuilding
// exactly the samplers that are pending or whose config changed, each
// from the sampler it replaces. Only safe before the base is published
// to runs.
func (b *unionBase) applyJoinConfigs(cfgs []joinConfig) {
	for i := range b.joins {
		if b.pending[i] || b.cfgs[i] != cfgs[i] {
			b.cfgs[i] = cfgs[i]
			b.samplers[i] = newJoinSampler(b.joins[i], cfgs[i], b.samplers[i])
			b.pending[i] = false
		}
	}
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

func alignPerm(ref *relation.Schema, j *join.Join) ([]int, error) {
	s := j.OutputSchema()
	perm := make([]int, ref.Len())
	for i := 0; i < ref.Len(); i++ {
		p := s.Index(ref.Attr(i))
		if p < 0 {
			return nil, fmt.Errorf("core: join %s lacks attribute %q", j.Name(), ref.Attr(i))
		}
		perm[i] = p
	}
	return perm, nil
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

// maxPooledValues is the retention bound of the run pools: a released
// run whose tuple buffer or record grew past this many values (2 MiB) is
// dropped instead of pooled, so one very large request cannot pin its
// buffers under a stream of small ones. Both are measured because they
// grow apart on a run that gets several Sample calls: serveResult
// compacts the arena after every call, while the record keeps every
// distinct value the run has seen. The result entries never outnumber
// the arena's tuples.
const maxPooledValues = 1 << 18

// poolable reports whether a released run's buffers are within the
// retention bound.
func (b *unionBase) poolable(arena []relation.Value, record *relation.KeyCounter) bool {
	return cap(arena) <= maxPooledValues && record.Cap()*b.ref.Len() <= maxPooledValues
}

// newRunPool returns the pool a prepared generation recycles its released
// runs through. It is allocated apart from the generation, and a run
// gives up its pointer to the generation when it is released, because
// sync.Pool keeps itself — and so whatever it is part of or holds —
// reachable from a global list until the second collection after its
// last Put: a pool embedded in the generation, or pooled runs pointing
// back at it, would keep every retired generation's weight and alias
// tables alive that long under a stream of appends.
func newRunPool() *sync.Pool { return new(sync.Pool) }

// runRNG is the generator a run carries across recycling.
type runRNG struct{ g *rng.RNG }

// RNG restarts the run's generator at seed (building it on first use)
// and returns it.
func (r *runRNG) RNG(seed int64) *rng.RNG {
	if r.g == nil {
		r.g = rng.New(seed)
	} else {
		r.g.Reseed(seed)
	}
	return r.g
}

func (b *unionBase) newScratch() drawScratch {
	s := drawScratch{
		out:   make(relation.Tuple, b.ref.Len()),
		rowOf: make([]int, b.maxNodes),
	}
	s.many = []relation.Tuple{s.out}
	return s
}

// recordKeys returns an empty tuple-keyed table for per-run records:
// keys are tuples in reference schema order, inserted through the
// join-specific alignment projection (recordProj).
func (b *unionBase) recordKeys() *relation.KeyCounter {
	return relation.NewKeyCounter(b.ref.Len(), 0)
}

// reserveRecord makes room in a run's record for the n values a batch is
// about to add, capped at what the union can still add: a record never
// holds more than Σ_j |J_j| distinct values, and every subroutine
// sampler knows |J_j| or an upper bound of it. A large n over a small
// union then costs the record nothing.
func (b *unionBase) reserveRecord(record *relation.KeyCounter, n int) {
	room := -float64(record.Len())
	for _, s := range b.samplers {
		room += s.SizeEstimate()
	}
	if float64(n) > room {
		n = int(room)
	}
	record.Reserve(n)
}

// recordProj is the projection that maps a tuple in join i's schema
// order onto the reference order for record lookups (nil = identity).
func (b *unionBase) recordProj(i int) []int { return b.perms[i] }

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

// growArena ensures arena has room for need more values without
// reallocating mid-batch.
func growArena(arena []relation.Value, need int) []relation.Value {
	if need <= 0 || cap(arena)-len(arena) >= need {
		return arena
	}
	na := make([]relation.Value, len(arena), len(arena)+need)
	copy(na, arena)
	return na
}

// growEntries grows a result buffer's capacity to n entries without
// changing its contents, so one Sample call allocates it at most once.
func growEntries[E any](r []E, n int) []E {
	if cap(r) >= n {
		return r
	}
	nr := make([]E, len(r), n)
	copy(nr, r)
	return nr
}

// serveFlat copies n buffered spans of arena out as tuples over one
// flat backing: two allocations for the whole batch. offAt(i) returns
// the i-th served entry's arena offset; k is the tuple width.
func serveFlat(arena []relation.Value, n, k int, offAt func(int) int) []relation.Tuple {
	flat := make([]relation.Value, n*k)
	out := make([]relation.Tuple, n)
	for i := 0; i < n; i++ {
		off := offAt(i)
		copy(flat[i*k:(i+1)*k], arena[off:off+k])
		out[i] = relation.Tuple(flat[i*k : (i+1)*k : (i+1)*k])
	}
	return out
}

// minContaining returns f(t): the smallest join index whose result
// contains the tuple (drawn from join i, so f(t) <= i always holds).
// This is the membership oracle used by the provably uniform variants.
// The probes are prepared at construction, so the scan allocates
// nothing.
func (b *unionBase) minContaining(i int, t relation.Tuple) int {
	for k := range b.probes[i] {
		if b.probes[i][k].Contains(t) {
			return k
		}
	}
	return i
}
