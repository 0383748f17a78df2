package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// This file implements the shard-parallel union sampler: every relation
// carrying the partition attribute is hash-partitioned into S fragments
// (internal/relation.Partition), each shard gets its own rebound joins
// and its own prepared per-shard sampler, and the union of shards is
// drawn from exactly the way the paper draws from a union of joins —
// per-shard weights estimated at warm-up, an alias table over shards
// picking a shard per tuple, uniform sampling within the shard.
//
// Correctness rests on the partition being disjoint: the partition
// attribute is a common output attribute, every result tuple has
// exactly one value of it, and shared attribute names are
// join-connected (enforced at Build), so σ_{hash(attr) mod S = s}(U)
// for s = 0..S-1 partitions U. Uniform over U therefore factors into
// "shard ∝ |U_s|, then uniform within the shard", and per-shard
// parameters sum to the union's (JoinSizes, Cover, |U| are all
// cardinalities of disjoint pieces).

// ErrEmptyUnion reports a warm-up whose estimated cover is all-zero:
// the union (or, for a shard, the shard's slice of it) appears empty.
// The sharded engine treats an empty shard as weight zero rather than a
// failure; an empty whole union remains an error.
var ErrEmptyUnion = errors.New("core: estimated cover is all-zero; union appears empty")

// ShardFactory prepares the sampler of one shard from its rebound
// joins, drawing warm-up randomness from g. The session layer supplies
// one closure that applies the caller's Options (estimator, method,
// online mode) to whatever join set it is handed.
type ShardFactory func(joins []*join.Join, g *rng.RNG) (PreparedSampler, error)

// ShardedConfig configures PrepareSharded.
type ShardedConfig struct {
	// Shards is the partition fan-out (>= 1).
	Shards int
	// Workers bounds the goroutines a warm-up, refresh, or draw
	// fans out to; <= 0 means GOMAXPROCS, which join.FanOut never
	// exceeds whatever is asked.
	Workers int
	// Factory prepares one shard's sampler; required.
	Factory ShardFactory
}

// ShardedShared is the prepared state of the shard-parallel sampler: S
// per-shard prepared samplers over hash fragments, the alias table over
// per-shard union sizes, and the aggregate parameters. Like the other
// prepared samplers it is immutable after warm-up and shared by any
// number of concurrent runs; Refresh publishes a reconciled copy.
type ShardedShared struct {
	origJoins []*join.Join
	cfg       ShardedConfig
	attr      string // the partition attribute, PartitionAttr's choice

	// parts hold the partitioned relations (one Partition per distinct
	// relation carrying the partition attribute); partOf maps a source
	// relation to its Partition for rebinding.
	parts  []*relation.Partition
	partOf map[*relation.Relation]*relation.Partition

	// shardJoins[s] are the rebound joins of shard s; perShard[s] is
	// that shard's prepared sampler, nil when the shard is empty.
	shardJoins [][]*join.Join
	perShard   []PreparedSampler

	// vers snapshots the ORIGINAL joins' StateVersions (captured before
	// the partitions, so a mutation racing the build is seen as stale,
	// never missed); weights[s] = |U_s|.
	vers    [][]uint64
	weights []float64
	alias   *rng.Alias
	params  *Params

	warmupTime time.Duration
	refresh    RefreshStats // summed over the shards a Refresh rebuilt

	// runs recycles released *ShardedSampler of this generation (see
	// prepared.runs); the per-shard runs inside go back to their own
	// shard's pool.
	runs *sync.Pool
}

// PartitionAttr selects the partition attribute for a union: among the
// common output attributes, the one whose holder relations (distinct by
// identity across all joins) cover the most rows — maximizing how much
// of the data the hash partition actually splits. Ties resolve to the
// earliest attribute in the reference output schema, so the choice is
// deterministic.
func PartitionAttr(joins []*join.Join) string {
	ref := joins[0].OutputSchema()
	best, bestScore := "", -1
	for i := 0; i < ref.Len(); i++ {
		a := ref.Attr(i)
		seen := make(map[*relation.Relation]bool)
		score := 0
		for _, j := range joins {
			for _, n := range j.Nodes() {
				if seen[n.Rel] || !n.Rel.Schema().Has(a) {
					continue
				}
				seen[n.Rel] = true
				score += n.Rel.Len()
			}
		}
		if score > bestScore {
			best, bestScore = a, score
		}
	}
	return best
}

// PrepareSharded partitions the union into cfg.Shards hash shards and
// prepares one sampler per shard (warm-ups run in parallel up to
// cfg.Workers, each on its own stream derived from g). Empty shards are
// tolerated at weight zero; an empty whole union returns ErrEmptyUnion.
func PrepareSharded(joins []*join.Join, cfg ShardedConfig, g *rng.RNG) (*ShardedShared, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: ShardedConfig.Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("core: ShardedConfig.Factory is required")
	}
	if err := ValidateUnion(joins); err != nil {
		return nil, err
	}
	start := time.Now()
	attr := PartitionAttr(joins)
	p := &ShardedShared{
		origJoins: joins,
		cfg:       cfg,
		attr:      attr,
		partOf:    make(map[*relation.Relation]*relation.Partition),
		runs:      newRunPool(),
	}
	// Version snapshot first: a mutation landing while the partitions
	// build makes the result stale (refresh reconciles), never silently
	// incomplete. Cyclic residuals reconcile before they are refiltered.
	p.vers = make([][]uint64, len(joins))
	for i, j := range joins {
		j.FreshenResidual()
		p.vers[i] = j.StateVersions()
	}
	for _, j := range joins {
		for _, n := range j.Nodes() {
			rel := n.Rel
			if p.partOf[rel] != nil || !rel.Schema().Has(attr) {
				continue
			}
			part, err := relation.NewPartition(rel, attr, cfg.Shards)
			if err != nil {
				return nil, err
			}
			p.partOf[rel] = part
			p.parts = append(p.parts, part)
		}
	}
	p.shardJoins = make([][]*join.Join, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		p.shardJoins[s] = make([]*join.Join, len(joins))
		for i, j := range joins {
			sj, err := join.Rebind(j, fmt.Sprintf("%s#%d", j.Name(), s), p.shardRel(s))
			if err != nil {
				return nil, err
			}
			p.shardJoins[s][i] = sj
		}
	}
	if err := p.warmShards(g, nil); err != nil {
		return nil, err
	}
	if err := p.aggregate(); err != nil {
		return nil, err
	}
	p.warmupTime = time.Since(start)
	return p, nil
}

// shardRel returns the Rebind substitution for shard s: partitioned
// relations map to their fragment, a residual materialization carrying
// the attribute is statically filtered to the shard, and everything
// else (relations without the partition attribute) is shared as-is
// across all shards — correct because the attribute's holders are
// join-connected, so the holders alone pin every result tuple's shard.
func (p *ShardedShared) shardRel(s int) func(*relation.Relation) (*relation.Relation, error) {
	return func(rel *relation.Relation) (*relation.Relation, error) {
		if part := p.partOf[rel]; part != nil {
			return part.Frag(s), nil
		}
		if rel.Schema().Has(p.attr) {
			return rel.Filter(
				fmt.Sprintf("%s#%d/%d", rel.Name(), s, p.cfg.Shards),
				relation.ShardPredicate{Attr: p.attr, Shard: s, Shards: p.cfg.Shards},
			), nil
		}
		return rel, nil
	}
}

// warmShards prepares (or, with prev non-nil, refreshes) every shard's
// sampler. Shard s draws its warm-up randomness from stream s of a base
// derived from g, so the result is reproducible whatever the worker
// interleaving. Empty shards come back nil.
func (p *ShardedShared) warmShards(g *rng.RNG, prev []PreparedSampler) error {
	base := int64(g.Uint64())
	p.perShard = make([]PreparedSampler, p.cfg.Shards)
	errs := make([]error, p.cfg.Shards)
	stats := make([]RefreshStats, p.cfg.Shards)
	join.FanOut(p.cfg.Workers, p.cfg.Shards, func(s int) {
		gs := rng.New(DeriveSeed(base, int64(s)))
		var ps PreparedSampler
		var err error
		if prev != nil && prev[s] != nil {
			var changed bool
			ps, changed, err = prev[s].Refresh(gs)
			// A clean shard returns prev[s] itself, whose stats are an
			// earlier refresh's; a shard built by Factory has no work list.
			if changed {
				stats[s] = ps.LastRefresh()
			}
		} else {
			ps, err = p.cfg.Factory(p.shardJoins[s], gs)
		}
		if errors.Is(err, ErrEmptyUnion) {
			ps, err = nil, nil // empty shard: weight zero, never drawn
		}
		p.perShard[s], errs[s] = ps, err
	})
	for s, err := range errs {
		if err != nil {
			return err
		}
		p.refresh.add(stats[s])
	}
	return nil
}

// aggregate sums per-shard parameters into the union's (exact under the
// disjoint partition) and builds the shard-selection alias table.
func (p *ShardedShared) aggregate() error {
	agg := &Params{
		JoinSizes: make([]float64, len(p.origJoins)),
		Cover:     make([]float64, len(p.origJoins)),
	}
	p.weights = make([]float64, p.cfg.Shards)
	for s, ps := range p.perShard {
		if ps == nil {
			continue
		}
		sp := ps.Params()
		for j := range sp.JoinSizes {
			agg.JoinSizes[j] += sp.JoinSizes[j]
		}
		for j := range sp.Cover {
			agg.Cover[j] += sp.Cover[j]
		}
		agg.UnionSize += sp.UnionSize
		p.weights[s] = sp.UnionSize
	}
	p.params = agg
	p.alias = rng.NewAlias(p.weights)
	if p.alias == nil {
		return ErrEmptyUnion
	}
	return nil
}

// Stale reports whether any original join's state moved since the
// snapshot — the authoritative staleness signal for the sharded
// sampler (per-shard samplers see fragments, which only move on Sync).
func (p *ShardedShared) Stale() bool {
	return stale(p.origJoins, p.vers)
}

// Refresh reconciles the sharded sampler with mutated data: partitions
// replay the mutation-log tail into their fragments, and only the
// shards whose fragments (or shared relations) moved rebuild their
// samplers and re-estimate — the PR 3 delta path, per shard. A cyclic
// original join's mutation, or a lost log tail, falls back to a full
// re-partition (rebound cyclic residuals are static filters, so there
// is nothing to reconcile incrementally). The receiver is untouched;
// in-flight runs keep drawing under the live-relation visibility
// contract.
func (p *ShardedShared) Refresh(g *rng.RNG) (PreparedSampler, bool, error) {
	dirty := dirtyJoins(p.origJoins, p.vers)
	if dirty == nil {
		return p, false, nil
	}
	for i, d := range dirty {
		if d && p.origJoins[i].IsCyclic() {
			np, err := PrepareSharded(p.origJoins, p.cfg, g)
			return np, true, err
		}
	}
	np := &ShardedShared{
		origJoins:  p.origJoins,
		cfg:        p.cfg,
		attr:       p.attr,
		parts:      p.parts,
		partOf:     p.partOf,
		shardJoins: p.shardJoins,
		runs:       newRunPool(),
	}
	// New snapshot before syncing, for the same conservative reason as
	// at build: a racing mutation re-reports stale rather than being
	// missed.
	np.vers = make([][]uint64, len(p.origJoins))
	for i, j := range p.origJoins {
		np.vers[i] = j.StateVersions()
	}
	start := time.Now()
	for _, part := range p.parts {
		if _, ok := part.Sync(); !ok {
			nps, err := PrepareSharded(p.origJoins, p.cfg, g)
			return nps, true, err
		}
	}
	// Per-shard Refresh sees exactly the dirty fragments (their
	// versions moved under Sync) plus dirty shared relations, and
	// rebuilds only those joins' samplers; clean shards return
	// themselves unchanged.
	if err := np.warmShards(g, p.perShard); err != nil {
		return nil, false, err
	}
	if err := np.aggregate(); err != nil {
		return nil, false, err
	}
	np.warmupTime = time.Since(start)
	return np, true, nil
}

// Prewarm forces every shard's lazily built shared structures.
func (p *ShardedShared) Prewarm() {
	join.FanOut(p.cfg.Workers, p.cfg.Shards, func(s int) {
		if p.perShard[s] != nil {
			p.perShard[s].Prewarm()
		}
	})
}

// LastRefresh sums what the shards a Refresh rebuilt report.
func (p *ShardedShared) LastRefresh() RefreshStats { return p.refresh }

// Disjoint fails: the shards share no one set of subroutine samplers.
func (p *ShardedShared) Disjoint() (*DisjointShared, error) {
	return nil, fmt.Errorf("core: a sharded sampler has no subroutine samplers to share; use PrepareDisjoint")
}

// Params returns the aggregate parameters: per-join sizes, cover sizes,
// and |U| summed over shards (exact under the disjoint partition).
func (p *ShardedShared) Params() *Params { return p.params }

// WarmupTime reports how long the last (re)preparation took, wall
// clock: parallel shard warm-ups overlap inside it.
func (p *ShardedShared) WarmupTime() time.Duration { return p.warmupTime }

// NewRun returns an independent sampling run: one per-shard run each
// (its own buffers, scratch, and Stats), merged behind one Run interface.
// Like the other engines' it is a released run when there is one; its
// per-shard runs are taken from their shards the same way.
func (p *ShardedShared) NewRun() Run {
	s, _ := p.runs.Get().(*ShardedSampler)
	if s == nil {
		s = &ShardedSampler{runs: make([]Run, len(p.perShard)), counts: make([]int, len(p.perShard))}
	}
	s.shared = p
	for i, ps := range p.perShard {
		if ps != nil {
			s.runs[i] = ps.NewRun()
		}
	}
	return s
}

// ShardedSampler is one sampling run over the union of shards: per
// tuple, the alias table picks a shard proportionally to |U_s| and the
// shard's run draws uniformly within it — Algorithm 1's join-selection
// shape lifted one level up. Membership is decided inside a shard, with
// no cross-shard probe, because the shards are disjoint: a value can
// never be produced by two shards.
type ShardedSampler struct {
	runRNG
	shared *ShardedShared
	runs   []Run
	stats  Stats

	// Per-call scratch, kept across calls and recycling: the shard drawn
	// for each output position and each shard's tuple count.
	order  []int32
	counts []int
}

// Release returns the per-shard runs to their shards' pools and the run
// to its generation's (see Run.Release).
func (s *ShardedSampler) Release() {
	for i, r := range s.runs {
		if r != nil {
			r.Release()
			s.runs[i] = nil
		}
	}
	p := s.shared
	s.shared = nil
	s.returnRNG()
	if cap(s.order) <= maxPooledValues {
		p.runs.Put(s)
	}
}

// Sample draws n tuples: shard assignments are drawn first (recording
// order and counts), each busy shard executes one per-shard sub-batch
// on its own stream derived from a single base draw, sub-batches run on
// a worker pool bounded by the configured workers, and results merge
// back in assignment order with no cross-shard locks. The merged stream
// is bit-identical however many workers actually run — scheduling
// affects only wall clock.
func (s *ShardedSampler) Sample(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.sample(n, g, Run.Sample)
}

// SampleView is Sample over the shard runs' views: the merged tuples
// alias the shard runs' arenas, valid until the run's next call or
// Release.
func (s *ShardedSampler) SampleView(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.sample(n, g, Run.SampleView)
}

func (s *ShardedSampler) sample(n int, g *rng.RNG, draw func(Run, int, *rng.RNG) ([]relation.Tuple, error)) ([]relation.Tuple, error) {
	if n <= 0 {
		return []relation.Tuple{}, nil
	}
	shards := len(s.runs)
	order := slices.Grow(s.order[:0], n)[:n]
	s.order = order
	counts := s.counts
	clear(counts)
	for i := range order {
		sh := s.shared.alias.Draw(g)
		order[i] = int32(sh)
		counts[sh]++
	}
	base := int64(g.Uint64())
	parts := make([][]relation.Tuple, shards)
	errs := make([]error, shards)
	busy := make([]int, 0, shards)
	for sh, c := range counts {
		if c == 0 {
			continue
		}
		if s.runs[sh] == nil {
			return nil, fmt.Errorf("core: sharded sampler drew empty shard %d", sh)
		}
		busy = append(busy, sh)
	}
	join.FanOut(s.shared.cfg.Workers, len(busy), func(i int) {
		sh := busy[i]
		parts[sh], errs[sh] = draw(s.runs[sh], counts[sh], s.runs[sh].RNG(DeriveSeed(base, int64(sh))))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]relation.Tuple, n)
	for i, sh := range order {
		out[i], parts[sh] = parts[sh][0], parts[sh][1:]
	}
	return out, nil
}

// SampleBatch forwards to Sample.
//
// Deprecated: Sample is the batch engine; the name stays for callers
// compiled against it.
func (s *ShardedSampler) SampleBatch(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.Sample(n, g)
}

// Stats merges the per-shard runs' instrumentation by summation (the
// counters are counts of disjoint work; the durations add the same
// way, so they total the shards' concurrent work and may exceed the
// wall time around the calls). Per-join breakdowns sum element-wise —
// shard join i is a fragment of union join i — except CoverRelHalfWidth,
// where the merge keeps the worst (largest) shard's relative half-width: a
// join's cover is only as converged as its least-converged fragment's.
// The merge is recomputed on every call into the same Stats, so it
// reflects all draws so far.
func (s *ShardedSampler) Stats() *Stats {
	m := &s.stats
	m.reset(len(s.shared.origJoins))
	for _, r := range s.runs {
		if r == nil {
			continue
		}
		st := r.Stats()
		for j, jb := range st.Joins {
			if j >= len(m.Joins) {
				break
			}
			m.Joins[j].Accepted += jb.Accepted
			m.Joins[j].Rejected += jb.Rejected
			m.Joins[j].Draws += jb.Draws
			m.Joins[j].CoverRelHalfWidth = max(m.Joins[j].CoverRelHalfWidth, jb.CoverRelHalfWidth)
		}
		m.Accepted += st.Accepted
		m.RejectedDup += st.RejectedDup
		m.JoinRejects += st.JoinRejects
		m.ReuseAccepted += st.ReuseAccepted
		m.ReuseRejected += st.ReuseRejected
		m.ReuseRejectedDup += st.ReuseRejectedDup
		m.Backtracks += st.Backtracks
		m.BacktrackDropped += st.BacktrackDropped
		m.TotalDraws += st.TotalDraws
		m.WarmupTime += st.WarmupTime
		m.AcceptTime += st.AcceptTime
		m.RejectTime += st.RejectTime
		m.ReuseTime += st.ReuseTime
		m.RegularTime += st.RegularTime
	}
	return m
}

// Params returns the shared aggregate parameters. Online runs refine
// their shard-local parameters internally; the aggregate view reported
// here is the warm-up estimate.
func (s *ShardedSampler) Params() *Params { return s.shared.params }
