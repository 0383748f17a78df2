package core

import (
	"slices"
	"sync"
	"time"

	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/walkest"
)

// PreparedSampler is the immutable product of a one-time warm-up: it
// knows the estimated parameters, hands out independent sampling runs,
// and carries its own lifecycle — prewarm, staleness, refresh. CoverShared
// (Algorithm 1) and OnlineShared (Algorithm 2) implement it over one
// prepared state; ShardedShared over one prepared sampler per shard.
type PreparedSampler interface {
	// Params returns the warm-up parameter estimates.
	Params() *Params
	// WarmupTime reports how long the one-time warm-up took.
	WarmupTime() time.Duration
	// NewRun returns an independent sampling run over the shared state:
	// a released one, reset, when the generation has one, a newly built
	// one otherwise. The two cannot be told apart by anything they draw
	// or report.
	NewRun() Run
	// Prewarm runs BuildShared over the sampler's joins. A sampler whose
	// preparation began with the build phase (Union.Prepare, every
	// Refresh) has nothing left for it to do; what it forces is the lazy
	// builds of a sampler prepared without one — a direct PrepareCover's
	// — before its runs go concurrent.
	Prewarm()
	// Stale reports whether any relation underlying the sampler mutated
	// since its warm-up (or last Refresh): draws still work but serve
	// parameters estimated over the old contents. It costs a few atomic
	// version loads and is safe to call concurrently with runs.
	Stale() bool
	// Refresh returns a prepared sampler reconciled with the current
	// data: dirty joins' residual materializations reconcile
	// (incrementally when the mutation delta allows), their subroutine
	// samplers rebuild from the ones they replace, and the estimator
	// re-runs over the incrementally maintained indexes and membership
	// tables — clean joins keep their samplers and their walk estimates,
	// whose membership in the dirty joins is probed again. The receiver is
	// left untouched, so in-flight runs keep sampling the old snapshot;
	// changed reports whether a new sampler was built — never over
	// unchanged data. Warm-up randomness is drawn from g, so a fixed seed
	// makes refreshed sessions reproducible.
	Refresh(g *rng.RNG) (np PreparedSampler, changed bool, err error)
	// LastRefresh reports what the Refresh that produced the sampler
	// did; it is zero for one that came from a Prepare. A sharded sampler
	// sums its shards'.
	LastRefresh() RefreshStats
	// Disjoint returns Definition 1's disjoint-union sampler over the
	// joins and subroutine samplers already prepared here, avoiding a
	// second subroutine setup (EW weight tables, indexes). A sharded
	// sampler has no single set to share and reports an error; prepare
	// over its original joins with PrepareDisjoint instead.
	Disjoint() (*DisjointShared, error)
}

var (
	_ PreparedSampler = (*CoverShared)(nil)
	_ PreparedSampler = (*OnlineShared)(nil)
	_ PreparedSampler = (*ShardedShared)(nil)
)

// Prewarm forwards to p.Prewarm.
func Prewarm(p PreparedSampler) { p.Prewarm() }

// BuildShared is the build phase of a preparation: join beside join, it
// forces what the warm-up and the draws read — each join edge's index on
// the child's join attribute, which every walk and draw probes, and the
// membership tables of every join but the last, as an owner probe
// (join.Owners) asks only the joins before the one it drew from. Run
// before the warm-up it moves every first-touch build off the serial
// walks and onto all cores; it consumes no randomness, so what the
// warm-up then estimates and draws is the same. Everything else builds
// on first use, once, behind its own lock: an edge's parent-side index
// on the first Refresh that follows a changed child value up to the
// parent rows holding it (RefreshStats.IndexesBuilt), the last join's
// membership tables on their first Contains, any other index on its
// first Relation.Index.
func BuildShared(joins []*join.Join) {
	join.FanOut(0, len(joins), func(i int) {
		if i < len(joins)-1 {
			joins[i].PrewarmMembership()
		}
		nodes := joins[i].Nodes()
		for k := 1; k < len(nodes); k++ {
			nodes[k].Rel.Index(nodes[k].AttrPos)
		}
	})
}

// The draw steps' progress bound. A step gives up with a "no progress"
// error instead of spinning on a join whose estimated cover or bound is
// positive but that yields no result: the cover and online steps after
// maxSelections join selections of up to maxDrawsPerSelection draws
// each; the disjoint and Bernoulli steps, which select anew for every
// draw, after maxAttempts draws.
const (
	maxSelections        = 64
	maxDrawsPerSelection = 256
	maxAttempts          = maxSelections * maxDrawsPerSelection
)

// prepared is the state every union sampler prepares alike, embedded by
// value in CoverShared, OnlineShared, DisjointShared and BernoulliShared:
// the join base with its subroutine samplers, the estimator that warmed
// it, the parameters and join-selection table the warm-up produced, and
// the pool its runs recycle through. After warm-up it is immutable and
// therefore safe to share between any number of concurrent runs — the
// split that lets one expensive warm-up serve many cheap draws. The
// samplers prepare through one lifecycle (warm, and for the two
// algorithms nextGen); they differ in the estimator and in the run
// NewRun hands out.
type prepared struct {
	base *unionBase
	// est warms this generation (a refresh carries its walk state over,
	// refreshedEstimator); walker is the walk state est retained, nil
	// when the warm-up ran no walks.
	est    Estimator
	walker *walkest.Estimator

	params *Params
	alias  *rng.Alias

	coverRelHW []float64 // per-join cover-size relative half-widths after warm-up
	warmupTime time.Duration
	refresh    RefreshStats // what the Refresh that built this state did
	folds      folds        // the joins' structures' fold counters once warm

	// runs recycles this generation's released runs (see newRunPool): a
	// Refresh publishes a new state with an empty pool, so a run never
	// crosses generations.
	runs *sync.Pool
}

// warm runs the estimator, prepares the join-selection distribution
// (lines 1-2 of Algorithm 1) and builds every pending subroutine sampler.
// It runs exactly once per prepared state (Prepare or Refresh), before
// the state is published to runs.
func (p *prepared) warm(g *rng.RNG) error {
	start := time.Now()
	var err error
	if p.params, err = p.est.Params(g); err != nil {
		return err
	}
	p.walker = retainedWalker(p.est)
	p.alias = rng.NewAlias(p.params.Cover)
	if p.walker != nil {
		p.coverRelHW = make([]float64, len(p.base.joins))
		for i, je := range p.walker.JoinEstimates() {
			p.coverRelHW[i] = je.CoverRelHalfWidth(p.walker.Z())
		}
	}
	p.warmupTime = time.Since(start)
	if p.alias == nil {
		return ErrEmptyUnion
	}
	if err := p.base.buildPending(); err != nil {
		return err
	}
	p.folds = countFolds(p.base.joins)
	return nil
}

// folds are the O(rows) builds the structures under a set of joins have
// been through: indexes over their distinct relations built from nothing
// and compacted, and membership tables built again.
type folds struct{ built, indexes, members uint64 }

func countFolds(joins []*join.Join) folds {
	var f folds
	var seen []*relation.Relation
	for _, j := range joins {
		f.members += j.MemberRebuilds()
		for _, r := range j.Relations() {
			if !slices.Contains(seen, r) {
				seen = append(seen, r)
				f.built += r.IndexBuilds()
				f.indexes += r.IndexCompactions()
			}
		}
	}
	return f
}

// retainedWalker extracts the retained walk estimator from a warm-up
// estimator, when it has one.
func retainedWalker(est Estimator) *walkest.Estimator {
	if e, ok := est.(*RandomWalkEstimator); ok {
		return e.Walker
	}
	return nil
}

// nextGen is the Refresh of both algorithms: reconcile the base, carry
// the estimator's walk state over under walkest's refresh rule (dirty
// joins' estimates reset — the old walks observed a join that no longer
// exists — and only they walk again), catch the shared structures up
// (BuildShared), warm, and report the work list.
func (p *prepared) nextGen(g *rng.RNG) (np prepared, changed bool, err error) {
	nb, dirty, changed := p.base.reconciled()
	if !changed {
		return np, false, nil
	}
	np = prepared{base: nb, runs: newRunPool()}
	np.est, np.refresh.Reprobed = refreshedEstimator(p.est, dirty)
	BuildShared(nb.joins)
	if err := np.warm(g); err != nil {
		return np, false, err
	}
	nb.patchStats(dirty, &np.refresh)
	np.refresh.Walks = walksRun(p.walker, np.walker, dirty)
	np.refresh.IndexesBuilt = int(np.folds.built - p.folds.built)
	np.refresh.IndexesCompacted = int(np.folds.indexes - p.folds.indexes)
	np.refresh.MembersRebuilt = int(np.folds.members - p.folds.members)
	return np, true, nil
}

// Params returns the warm-up parameters.
func (p *prepared) Params() *Params { return p.params }

// WarmupTime reports how long the one-time warm-up took.
func (p *prepared) WarmupTime() time.Duration { return p.warmupTime }

// Prewarm implements PreparedSampler.
func (p *prepared) Prewarm() { BuildShared(p.base.joins) }

// Stale implements PreparedSampler.
func (p *prepared) Stale() bool {
	return stale(p.base.joins, p.base.vers)
}

// LastRefresh implements PreparedSampler.
func (p *prepared) LastRefresh() RefreshStats { return p.refresh }

// Disjoint implements PreparedSampler.
func (p *prepared) Disjoint() (*DisjointShared, error) { return newDisjointShared(p.base) }

// Samplers returns the per-join subroutine samplers the state draws from.
func (p *prepared) Samplers() []joinsample.Sampler { return p.base.samplers }

// EngineOf, set by the root package, returns what a Session draws from
// now: how checks in this module read tables no public method exposes.
var EngineOf func(session any) PreparedSampler

// RefreshStats reports what the Refresh that produced a prepared sampler
// did — the work list, not the data size, is what a refresh should cost.
type RefreshStats struct {
	// DirtyJoins counts the joins with a mutated relation.
	DirtyJoins int `json:"dirty_joins"`
	// SegmentsPatched counts the weight-table segments EW samplers
	// recomputed or rescaled in place of a rebuild; NodesRebuilt the
	// join nodes join.Patch.Folded names (small segments folded back
	// into flat arrays, or every entry of the node reached with the rows
	// written there past an eighth of it); JoinsRebuilt the joins whose
	// tables were rebuilt whole (a compacted index of a node with
	// children, a lost mutation-log tail). A leaf keeps no table — it
	// draws from its index — so it adds to none of these, and its
	// index's compaction rebuilds nothing. WeightBytes is the
	// weight-table storage all of that wrote — running sums, row lists,
	// offsets, overlay records, the overlay slot tables it allocated,
	// and the blocks, group and segment directories and headers of large
	// segments it rewrote (join.Patch.Bytes) — and so all the weight
	// storage the refresh causes: draws build nothing over the tables
	// afterwards. A large
	// segment costs the blocks that hold its reached rows, their groups'
	// directories and its top directory (16 B a block of such a group, a
	// group of the segment), not its length; a rescaled one, its header.
	SegmentsPatched int `json:"segments_patched"`
	NodesRebuilt    int `json:"nodes_rebuilt"`
	JoinsRebuilt    int `json:"joins_rebuilt"`
	WeightBytes     int `json:"weight_bytes"`
	// IndexesBuilt counts the indexes over the joins' relations that were
	// built from nothing — a parent's index over a join attribute, which
	// set-up leaves to the first Refresh that follows a changed child
	// value up — IndexesCompacted those built again instead of extending
	// their overlay, and MembersRebuilt the membership tables whose delta
	// was folded into a rebuilt base, since the previous generation was
	// built: with NodesRebuilt, the builds that cost O(rows) rather than
	// O(burst).
	IndexesBuilt     int `json:"indexes_built"`
	IndexesCompacted int `json:"indexes_compacted"`
	MembersRebuilt   int `json:"members_rebuilt"`
	// Walks counts the wander-join walks run; Reprobed the retained
	// walks of clean joins whose owners were probed again
	// (walkest.Estimator.Refreshed), not those no dirty join can move.
	Walks    int `json:"walks"`
	Reprobed int `json:"reprobed"`
	// Duration is the whole refresh, set by the session layer.
	Duration time.Duration `json:"duration_ns"`
}

func (a *RefreshStats) add(b RefreshStats) {
	a.DirtyJoins += b.DirtyJoins
	a.SegmentsPatched += b.SegmentsPatched
	a.NodesRebuilt += b.NodesRebuilt
	a.JoinsRebuilt += b.JoinsRebuilt
	a.WeightBytes += b.WeightBytes
	a.IndexesBuilt += b.IndexesBuilt
	a.IndexesCompacted += b.IndexesCompacted
	a.MembersRebuilt += b.MembersRebuilt
	a.Walks += b.Walks
	a.Reprobed += b.Reprobed
}

// DeriveSeed maps a base seed and a stream index to a decorrelated RNG
// seed using the SplitMix64 finalizer. Unlike additive schemes
// (seed + i·constant), nearby base seeds and stream indexes can never
// produce overlapping or collapsing streams: any change to either input
// avalanches through the whole output.
func DeriveSeed(base, stream int64) int64 {
	z := uint64(base) + uint64(stream)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
