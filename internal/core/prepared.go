package core

import (
	"fmt"
	"time"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// Run is one sampling run over a prepared set-union sampler. A run owns
// all per-draw mutable state (RNG-driven stream position, value-to-join
// record, result buffer, Stats, online refinement); the prepared state
// behind it is shared and read-only. Runs from the same prepared
// sampler may execute concurrently as long as each uses its own RNG.
type Run interface {
	UnionSampler
	// SampleBatch forwards to Sample.
	//
	// Deprecated: Sample is the batch engine; the name stays for
	// callers compiled against it.
	SampleBatch(n int, g *rng.RNG) ([]relation.Tuple, error)
	// Params returns the parameters the run currently samples under:
	// the shared warm-up estimates, refined per-run in online mode.
	Params() *Params
	// RNG restarts the generator the run carries at seed and returns it:
	// the stream rng.New(seed) yields, without a new source per run.
	RNG(seed int64) *rng.RNG
	// Release hands the run back to the prepared generation it came
	// from, whose next NewRun may reset and reuse it. The caller must be
	// done with everything that points into the run — copy what Stats
	// and Params return first (returned tuples are the caller's own) —
	// and must not touch the run again. Releasing is optional: a run
	// that is never released is simply collected.
	Release()
}

// PreparedSampler is the immutable product of a one-time warm-up: it
// knows the estimated parameters and hands out independent sampling
// runs. CoverShared (Algorithm 1) and OnlineShared (Algorithm 2)
// implement it.
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

	// unionBase exposes the shared join machinery so sibling samplers
	// (PrepareDisjointFrom) can reuse it without a second setup.
	unionBase() *unionBase
}

var (
	_ PreparedSampler = (*CoverShared)(nil)
	_ PreparedSampler = (*OnlineShared)(nil)
	_ Run             = (*CoverSampler)(nil)
	_ Run             = (*OnlineSampler)(nil)
)

// Prewarm forces the lazily built shared structures the samplers read —
// membership tables and, per join edge, the two indexes over its join
// attribute: the child's, which every draw probes, and the parent's,
// which a refresh follows from a changed child value to the parent rows
// holding it — so that concurrent runs pay no build cost and only ever
// read them. (First use is safe without Prewarm too — both structures
// build exactly once behind an atomic publish — but prewarming moves
// the cost into preparation.) An index over any other attribute still
// builds on its first Relation.Index, and costs a refresh nothing until
// then.
func Prewarm(p PreparedSampler) {
	if s, ok := p.(*ShardedShared); ok {
		s.prewarm()
		return
	}
	base := p.unionBase()
	for _, j := range base.joins {
		j.PrewarmMembership()
		nodes := j.Nodes()
		for k := 1; k < len(nodes); k++ {
			n := &nodes[k]
			n.Rel.Index(n.AttrPos)
			nodes[n.Parent].Rel.Index(n.ParentAttrPos)
		}
	}
}

// Stale reports whether any relation underlying the prepared sampler
// mutated since its warm-up (or last Refresh): draws still work but
// serve parameters estimated over the old contents. It costs a few
// atomic version loads and is safe to call concurrently with runs.
func Stale(p PreparedSampler) bool {
	if s, ok := p.(*ShardedShared); ok {
		return s.stale()
	}
	b := p.unionBase()
	_, any := dirtyJoins(b.joins, b.vers)
	return any
}

// Refresh returns a prepared sampler reconciled with the current data:
// dirty joins' residual materializations reconcile (incrementally when
// the mutation delta allows), their subroutine samplers rebuild, and
// the parameters re-estimate — clean joins keep their samplers and
// (for the online mode) their walk estimates. The receiver is left
// untouched, so in-flight runs keep sampling the old snapshot; changed
// reports whether a new sampler was built. Warm-up randomness is drawn
// from g, so a fixed seed makes refreshed sessions reproducible.
func Refresh(p PreparedSampler, g *rng.RNG) (PreparedSampler, bool, error) {
	switch s := p.(type) {
	case *CoverShared:
		return s.Refresh(g)
	case *OnlineShared:
		return s.Refresh(g)
	case *ShardedShared:
		return s.Refresh(g)
	}
	return p, false, fmt.Errorf("core: Refresh: unsupported prepared sampler %T", p)
}

// RefreshStats reports what the Refresh that produced a prepared sampler
// did — the work list, not the data size, is what a refresh should cost.
type RefreshStats struct {
	// DirtyJoins counts the joins with a mutated relation.
	DirtyJoins int `json:"dirty_joins"`
	// SegmentsPatched counts the weight-table segments EW samplers
	// recomputed in place of a rebuild; NodesRebuilt the join nodes whose
	// patched table was folded back into flat arrays; JoinsRebuilt the
	// joins whose tables were rebuilt whole (a compacted index, a lost
	// mutation-log tail).
	SegmentsPatched int `json:"segments_patched"`
	NodesRebuilt    int `json:"nodes_rebuilt"`
	JoinsRebuilt    int `json:"joins_rebuilt"`
	// Walks counts the wander-join walks run; Reprobed the retained
	// walks of clean joins whose membership in the dirty joins was
	// tested again.
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
	a.Walks += b.Walks
	a.Reprobed += b.Reprobed
}

// LastRefresh reports what the Refresh that produced p did; it is zero
// for a sampler that came from a Prepare. A sharded sampler sums its
// shards'.
func LastRefresh(p PreparedSampler) RefreshStats {
	switch s := p.(type) {
	case *CoverShared:
		return s.refresh
	case *OnlineShared:
		return s.refresh
	case *ShardedShared:
		return s.refresh
	}
	return RefreshStats{}
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

// NewRunRNG returns the RNG for stream index i of a prepared session
// with the given base seed.
func NewRunRNG(base, stream int64) *rng.RNG {
	return rng.New(DeriveSeed(base, stream))
}
