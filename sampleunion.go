// Package sampleunion is the public API of the union-of-joins sampler:
// a from-scratch Go implementation of "Sampling over Union of Joins"
// (Liu, Xu, Nargesian; PVLDB 2023).
//
// Given a set of joins J_1 ... J_n with a common output schema, the
// package draws independent random samples from their set union (each
// distinct result tuple with probability 1/|J_1 ∪ ... ∪ J_n|) or their
// disjoint union — without executing the joins or the union.
//
// Quick start:
//
//	customers := sampleunion.NewRelation("customers", sampleunion.NewSchema("custkey", "nationkey"))
//	orders := sampleunion.NewRelation("orders", sampleunion.NewSchema("orderkey", "custkey"))
//	// ... load tuples ...
//	j1, _ := sampleunion.Chain("east", []*sampleunion.Relation{customers, orders}, []string{"custkey"})
//	u, _ := sampleunion.NewUnion(j1, j2, j3)
//
// The paper splits the work into an expensive warm-up (join sizes,
// covers, |U|) and cheap per-sample draws. A Union describes the query;
// Prepare pays the warm-up once and returns a Session that draws:
//
//	s, _ := u.Prepare(sampleunion.Options{Seed: 42})
//	tuples, _, _ := s.Sample(1000)        // per-draw cost only
//	count, _ := s.ApproxCount(pred, 5000) // same warm-up, new stream
//
// A Session is safe for concurrent use: the prepared state is shared
// read-only and every call samples its own independent stream, so
// Session.SampleParallel performs exactly one warm-up total no matter
// how many workers it fans out to.
//
// The warm-up estimation method and the online (sample reuse +
// backtracking) mode are selected through Options; every join draws
// through the exact-weight subroutine. The zero Options is the
// random-walk warm-up (Warmup: WarmupRandomWalk). Warmup values are
// their own textual spelling, so the same Options serve as the JSON
// "options" object of the serving layer and behind cmd/sampler's flags,
// and Options.Canonical is the one place they are validated and
// defaulted. See the examples/ directory for end-to-end programs.
package sampleunion

import (
	"fmt"
	"runtime"

	"sampleunion/internal/core"
	"sampleunion/internal/histest"
	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/walkest"
)

// Core data types, re-exported from the relational engine.
type (
	// Relation is an in-memory table with lazily built hash indexes.
	Relation = relation.Relation
	// Schema is an ordered list of attribute names.
	Schema = relation.Schema
	// Tuple is one row of values in schema order.
	Tuple = relation.Tuple
	// Value is the engine's scalar type; strings are interned through
	// a Dictionary.
	Value = relation.Value
	// Dictionary interns strings to Values.
	Dictionary = relation.Dictionary
	// Predicate is a selection condition (see Cmp, And, Or, Not, In).
	Predicate = relation.Predicate
	// Join is an executable join query over base relations.
	Join = join.Join
	// Edge declares an equi-join between two relations for Cyclic.
	Edge = join.Edge
	// Stats instruments a sampling run (accept/reject counts, time
	// breakdown).
	Stats = core.Stats
)

// ErrWeightOverflow is what Prepare and Refresh return, wrapped with the
// join's name, when an EW join's exact weights — its result count among
// them — pass math.MaxInt64.
var ErrWeightOverflow = join.ErrWeightOverflow

// Predicate constructors, re-exported so selections (§8.3) are
// expressible through the public API.
type (
	// Cmp compares an attribute against a constant.
	Cmp = relation.Cmp
	// And is a conjunction of predicates (empty = true).
	And = relation.And
	// Or is a disjunction of predicates (empty = false).
	Or = relation.Or
	// Not negates a predicate.
	Not = relation.Not
	// In tests membership of an attribute in a value set.
	In = relation.In
	// True always holds.
	True = relation.True
	// CmpOp is a comparison operator.
	CmpOp = relation.CmpOp
)

// Comparison operators for Cmp.
const (
	EQ = relation.EQ
	NE = relation.NE
	LT = relation.LT
	LE = relation.LE
	GT = relation.GT
	GE = relation.GE
)

// NewIn builds an In predicate over the given values.
func NewIn(attr string, vals ...Value) In { return relation.NewIn(attr, vals...) }

// NewSchema builds a schema from attribute names; see relation.NewSchema.
func NewSchema(attrs ...string) *Schema { return relation.NewSchema(attrs...) }

// NewRelation returns an empty relation with the given schema.
func NewRelation(name string, schema *Schema) *Relation { return relation.New(name, schema) }

// NewDictionary returns an empty string-interning dictionary.
func NewDictionary() *Dictionary { return relation.NewDictionary() }

// Chain builds the chain join rels[0] ⋈ rels[1] ⋈ ... where rels[i]
// joins rels[i-1] on attrs[i-1].
func Chain(name string, rels []*Relation, attrs []string) (*Join, error) {
	return join.NewChain(name, rels, attrs)
}

// Tree builds an acyclic join from an explicit join tree: parent[i] is
// the parent of rels[i] (-1 for the root at index 0) and attrs[i] the
// shared join attribute.
func Tree(name string, rels []*Relation, parent []int, attrs []string) (*Join, error) {
	return join.NewTree(name, rels, parent, attrs)
}

// Cyclic builds a join from a general join graph, breaking cycles by
// materializing a residual relation (§8.2 of the paper). residualSet
// may be nil to choose the residual automatically.
func Cyclic(name string, rels []*Relation, edges []Edge, residualSet []int) (*Join, error) {
	return join.NewCyclic(name, rels, edges, residualSet)
}

// Warmup selects how the framework estimates join sizes, overlaps, and
// the union size before sampling. The value is its own textual
// spelling: the Go constant, the JSON "warmup" field of a served
// declaration and cmd/sampler's -warmup flag are one vocabulary.
type Warmup string

const (
	// WarmupHistogram bounds overlaps from column statistics (§5): each
	// value's degree, the distinct count and the maximum degree, read
	// from the relations' attribute indexes, which keep them under
	// appends and deletes, so the bounds count nothing again. Join sizes
	// are the exact counts the EW weight tables hold. Upper-bound
	// overlaps need no walks; sampling efficiency suffers under skew.
	WarmupHistogram Warmup = "histogram"
	// WarmupRandomWalk runs wander-join walks (§6): accurate unbiased
	// estimates at the cost of warm-up walks; needs data access. The
	// empty Warmup means this.
	WarmupRandomWalk Warmup = "random-walk"
	// WarmupExact executes every join once and counts exact parameters
	// — the FullJoinUnion ground truth: each result is probed against
	// the earlier joins to find its cover region. Its cost is the joins'
	// full output, so it suits validation and small scales.
	WarmupExact Warmup = "exact"
)

// Options configure a warm-up and the sampler prepared from it. The
// JSON tags are the serving layer's wire names: a served declaration's
// "options" object is this struct.
type Options struct {
	// Warmup selects the parameter estimation method. Empty means
	// WarmupRandomWalk.
	Warmup Warmup `json:"warmup,omitempty"`
	// Online enables Algorithm 2: wander-join draws with sample reuse
	// and backtracking parameter refinement. It warms with its own
	// walks, so Warmup must be empty or WarmupRandomWalk beside it; a
	// negative WarmupWalks starts it from histogram parameters instead.
	Online bool `json:"online,omitempty"`
	// WarmupWalks is the warm-up walk budget per join. 0 means 1000.
	// The random-walk warm-up stops a join's walks early once its size
	// estimate is confident enough; online mode walks exactly the budget.
	// A negative value runs no warm-up walks and is only valid with
	// Online, which then starts from histogram parameters and refines
	// purely on the fly.
	WarmupWalks int `json:"warmup_walks,omitempty"`
	// Seed makes sampling reproducible (default 1). It seeds the
	// warm-up, and a prepared Session derives a decorrelated per-call
	// stream from it (see Session.SampleSeeded for explicit streams).
	Seed int64 `json:"seed,omitempty"`

	// Shards enables the shard-parallel engine: every relation carrying
	// the partition attribute (a common output attribute, chosen to
	// cover the most rows) is hash-partitioned into Shards fragments,
	// one sampler is prepared per shard (warm-ups run in parallel), and
	// each draw selects a shard proportionally to its estimated union
	// size before sampling uniformly within it — the union of shards
	// drawn exactly like the paper draws from a union of joins. Draws
	// fan per-shard sub-batches out to a worker pool and merge without
	// cross-shard locks.
	//
	// 0 or 1 keeps the single-shard engine, the default. ShardsAuto (or
	// any negative value) resolves to runtime.GOMAXPROCS(0). Sharded
	// streams are themselves deterministic for a fixed seed and shard
	// count, but differ from single-shard streams under the same seed.
	Shards int `json:"shards,omitempty"`

	// testEstimator, when non-nil, overrides the Warmup selection with
	// a caller-supplied estimator. Package tests use it to count
	// estimator invocations; it is not part of the public API.
	testEstimator core.Estimator
}

// ShardsAuto sets Options.Shards to the number of usable cores
// (runtime.GOMAXPROCS) at Prepare time.
const ShardsAuto = -1

// Canonical validates the options and fills every default, returning
// the one spelling all equal-by-effect options share: an empty Warmup
// is WarmupRandomWalk; Online with any other Warmup is an error
// (Algorithm 2 always warms with walks); WarmupWalks 0 is 1000 and any
// negative count -1 (an error without Online, the one sampler that can
// start without walks); Seed 0 is 1; Shards below 0 is
// runtime.GOMAXPROCS(0) and below 1 is 1. Canonical options are a fixed
// point of Canonical. Every entry point of the package applies it, and
// the serving layer keys and persists declarations by it, so it is the
// only place an enum string is checked or a default chosen.
func (o Options) Canonical() (Options, error) {
	switch o.Warmup {
	case "", WarmupHistogram, WarmupRandomWalk, WarmupExact:
	default:
		return o, fmt.Errorf("sampleunion: unknown warmup %q (valid: histogram, random-walk, exact)", o.Warmup)
	}
	if o.Warmup == "" {
		o.Warmup = WarmupRandomWalk
	}
	if o.Online && o.Warmup != WarmupRandomWalk {
		return o, fmt.Errorf("sampleunion: online warms with random walks, not warmup %q (warmup_walks < 0 is how Algorithm 2 starts from histogram parameters)", o.Warmup)
	}
	if o.WarmupWalks == 0 {
		o.WarmupWalks = 1000
	}
	if o.WarmupWalks < 0 {
		if !o.Online {
			return o, fmt.Errorf("sampleunion: negative warmup_walks %d needs online (only Algorithm 2 starts without warm-up walks)", o.WarmupWalks)
		}
		o.WarmupWalks = -1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards < 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o, nil
}

// Union is a set of joins with a common output schema whose union is
// sampled.
type Union struct {
	joins []*Join
	// probes[i] tests join i's membership for tuples in OutputSchema
	// order, prepared once for Contains.
	probes []join.AlignedProbe
}

// NewUnion validates that the joins share an output attribute set and
// returns the union query.
func NewUnion(joins ...*Join) (*Union, error) {
	if err := core.ValidateUnion(joins); err != nil {
		return nil, err
	}
	u := &Union{joins: joins, probes: make([]join.AlignedProbe, len(joins))}
	for i, j := range joins {
		p, err := j.AlignProbe(u.OutputSchema())
		if err != nil {
			return nil, err
		}
		u.probes[i] = p
	}
	return u, nil
}

// Joins returns the union's joins.
func (u *Union) Joins() []*Join { return u.joins }

// OutputSchema returns the schema sampled tuples use (the first join's
// output schema; other joins are aligned to it by attribute name).
func (u *Union) OutputSchema() *Schema { return u.joins[0].OutputSchema() }

// estimatorFor builds the core.Estimator for the (canonical) options
// over a join set — the whole union's, or one shard's rebound joins —
// with an explicit walk budget (the sharded engine divides the session's
// budget across shards). Online options warm the way Algorithm 2 does;
// Canonical admits no Warmup but random-walk beside them.
func estimatorFor(joins []*join.Join, o Options, walks int) core.Estimator {
	if o.testEstimator != nil {
		return o.testEstimator
	}
	if o.Online {
		return core.OnlineEstimator(joins, walks)
	}
	switch o.Warmup {
	case WarmupHistogram:
		return &core.HistogramEstimator{Joins: joins, Opts: histest.Options{Sizes: histest.SizeEW}}
	case WarmupExact:
		return &core.ExactEstimator{Joins: joins}
	}
	return &core.RandomWalkEstimator{Joins: joins, Opts: walkest.Options{MaxWalks: walks}}
}

// minShardWarmupWalks floors the per-shard walk budget: dividing the
// session budget across many shards must not starve a shard's estimate.
const minShardWarmupWalks = 32

// prepareSampler prepares the sampler the (canonical) options select:
// the engine itself over the union's joins, or the shard-parallel
// engine with one engine per shard and the warm-up walk budget split
// across them. Each engine's preparation starts with the build phase
// (core.BuildShared over the joins it samples — a shard's over its
// fragments, inline when the shard warm-ups already fill the cores).
func (u *Union) prepareSampler(o Options, g *rng.RNG) (core.PreparedSampler, error) {
	walks := o.WarmupWalks
	if o.Shards > 1 && walks > 0 {
		walks = max((walks+o.Shards-1)/o.Shards, minShardWarmupWalks)
	}
	engine := func(joins []*join.Join, g *rng.RNG) (core.PreparedSampler, error) {
		core.BuildShared(joins)
		return prepareEngine(joins, o, walks, g)
	}
	if o.Shards <= 1 {
		return engine(u.joins, g)
	}
	return core.PrepareSharded(u.joins, core.ShardedConfig{Shards: o.Shards, Factory: engine}, g)
}

// prepareEngine is the one place the options pick between the paper's
// two samplers: Algorithm 2 when Online, Algorithm 1 over the selected
// estimator otherwise, on the whole union's joins or on one shard's
// rebound joins.
func prepareEngine(joins []*join.Join, o Options, walks int, g *rng.RNG) (core.PreparedSampler, error) {
	if o.Online {
		return core.PrepareOnline(joins, core.OnlineConfig{WarmupWalks: walks}, g)
	}
	return core.PrepareCover(joins, core.CoverConfig{
		Method:    core.MethodEW,
		Estimator: estimatorFor(joins, o, walks),
	}, g)
}

// EstimateUnionSize runs the selected warm-up over the whole union and
// returns the estimated |J_1 ∪ ... ∪ J_n| without executing the joins
// or preparing a sampler. It is the warm-up a single-shard Session runs,
// so it equals that Session's UnionSize; under Shards > 1 a Session sums
// per-shard warm-ups instead, and the two estimates differ.
func (u *Union) EstimateUnionSize(o Options) (float64, error) {
	o, err := o.Canonical()
	if err != nil {
		return 0, err
	}
	p, err := estimatorFor(u.joins, o, o.WarmupWalks).Params(rng.New(o.Seed))
	if err != nil {
		return 0, err
	}
	return p.UnionSize, nil
}

// ExactUnionSize executes every join and returns the exact set-union
// size: WarmupExact's count, Σ_j of join j's results no earlier join
// contains — one enumeration per join and a membership probe per earlier
// join, the expensive ground truth.
func (u *Union) ExactUnionSize() (int, error) {
	p, err := (&core.ExactEstimator{Joins: u.joins}).Params(nil)
	if err != nil {
		return 0, err
	}
	return int(p.UnionSize), nil
}

// PushDown returns a new Union whose joins are filtered by the given
// predicates pushed down to base relations — §8.3's preprocessing
// alternative, the right choice for selective predicates.
func (u *Union) PushDown(preds ...Predicate) (*Union, error) {
	filtered := make([]*Join, len(u.joins))
	for i, j := range u.joins {
		fj, err := join.PushDown(j, preds...)
		if err != nil {
			return nil, err
		}
		filtered[i] = fj
	}
	return NewUnion(filtered...)
}

// Contains reports whether the tuple (in OutputSchema order) is a
// result of at least one of the union's joins.
func (u *Union) Contains(t Tuple) bool {
	for _, p := range u.probes {
		if p.Contains(t) {
			return true
		}
	}
	return false
}
