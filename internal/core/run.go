package core

import (
	"slices"
	"sync"
	"time"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// Run is one sampling run over a prepared set-union sampler. A run owns
// all per-draw mutable state (RNG-driven stream position, result buffer,
// Stats, online refinement); the prepared state behind it is shared and
// read-only. Runs from the same prepared sampler may execute concurrently
// as long as each uses its own RNG.
type Run interface {
	// Sample returns n tuples drawn with replacement, in the first join's
	// output schema order, as the caller's own.
	Sample(n int, g *rng.RNG) ([]relation.Tuple, error)
	// SampleView is Sample for a consumer that reads the batch before the
	// run's next call and keeps none of it: the tuples alias the run's
	// buffers, valid until that call or Release.
	SampleView(n int, g *rng.RNG) ([]relation.Tuple, error)
	// Stats returns the run's instrumentation.
	Stats() *Stats
	// SampleBatch forwards to Sample.
	//
	// Deprecated: Sample is the batch engine; the name stays for
	// callers compiled against it.
	SampleBatch(n int, g *rng.RNG) ([]relation.Tuple, error)
	// Params returns the parameters the run currently samples under:
	// the shared warm-up estimates, refined per-run in online mode.
	Params() *Params
	// RNG restarts the run's generator at seed and returns it: the
	// stream rng.New(seed) yields, on a generator borrowed from the
	// process-wide pool (rng.Borrow) until Release.
	RNG(seed int64) *rng.RNG
	// Release hands the run back to the prepared generation it came
	// from, whose next NewRun may reset and reuse it. The caller must be
	// done with everything that points into the run — copy what Stats
	// and Params return first (returned tuples are the caller's own) —
	// and must not touch the run again. Releasing is optional: a run
	// that is never released is simply collected.
	Release()
}

var (
	_ Run = (*CoverSampler)(nil)
	_ Run = (*OnlineSampler)(nil)
	_ Run = (*DisjointSampler)(nil)
	_ Run = (*BernoulliSampler)(nil)
	_ Run = (*ShardedSampler)(nil)
)

// resultEntry is one buffered sample: the arena offset of the tuple's
// value span. The tuple itself lives in the run's arena — buffering a
// sample allocates nothing. join and prob are what Algorithm 2's
// backtracking pass thins by; Algorithm 1 never reads them.
type resultEntry struct {
	off  int // start of the tuple's span in the run's arena
	join int
	prob float64 // inclusion probability the tuple was accepted under
}

// runState is the mutable state every run of a prepared state owns,
// embedded by value in CoverSampler, OnlineSampler, DisjointSampler and
// BernoulliSampler, and the one implementation of what they share: the
// accept rule, the result buffer over a run-owned arena, batch sizing and
// copy-out or view, and the reset / Release half of recycling. The
// samplers differ only in their draw step: how a join is selected (by
// cover, by size, by a coin per join), how a candidate is produced (a
// subroutine draw; a walk or a reused warm-up sample with a
// multiplicity), and online's backtracking pass.
type runState struct {
	runRNG
	prep   *prepared // the generation the run samples; nil once released
	result []resultEntry
	arena  []relation.Value // backing store of buffered samples
	view   []relation.Tuple // SampleView's tuple headers over the arena
	stats  Stats
	// draw is the sampler's step, set when the run is built: buffer at
	// least one more sample (and, online, run the backtracking check).
	draw func(g *rng.RNG) error
}

// reset starts the run over on generation p: buffers emptied with their
// storage kept, counters zeroed. Nothing a later draw decides can depend
// on what the storage held.
func (s *runState) reset(p *prepared) {
	s.prep = p
	s.result, s.arena = s.result[:0], s.arena[:0]
	s.stats.reset(len(p.base.joins))
	for i, v := range p.coverRelHW {
		s.stats.Joins[i].CoverRelHalfWidth = v
	}
}

// maxPooledValues is the retention bound of the run pools: a released
// run whose tuple buffer grew past this many values (2 MiB) is dropped
// instead of pooled, so one very large request cannot pin its buffer
// under a stream of small ones.
const maxPooledValues = 1 << 18

// release returns run — the sampler s is embedded in — to its
// generation's pool when its buffer is within the retention bound, and
// drops the run's pointer to the generation either way (see newRunPool).
func (s *runState) release(run Run) {
	p := s.prep
	s.prep = nil
	s.returnRNG()
	if cap(s.arena) <= maxPooledValues {
		p.runs.Put(run)
	}
}

// newRunPool returns the pool a prepared generation recycles its released
// runs through. It is allocated apart from the generation, and a run
// gives up its pointer to the generation when it is released, because
// sync.Pool keeps itself — and so whatever it is part of or holds —
// reachable from a global list until the second collection after its
// last Put: a pool embedded in the generation, or pooled runs pointing
// back at it, would keep every retired generation's weight tables alive
// that long under a stream of appends.
func newRunPool() *sync.Pool { return new(sync.Pool) }

// runRNG is the generator a run draws with between its first RNG call
// and its Release, which hands it back to the process-wide pool: runs
// are pooled per generation, so a Refresh starts with none, but its
// first draws still build no source.
type runRNG struct{ g *rng.RNG }

// RNG restarts the run's generator at seed (borrowing it on first use)
// and returns it.
func (r *runRNG) RNG(seed int64) *rng.RNG {
	if r.g == nil {
		r.g = rng.Borrow(seed)
	} else {
		r.g.Reseed(seed)
	}
	return r.g
}

func (r *runRNG) returnRNG() {
	if r.g != nil {
		rng.Return(r.g)
		r.g = nil
	}
}

// Stats returns the run's instrumentation.
func (s *runState) Stats() *Stats { return &s.stats }

// Params returns the parameters the run samples under: its generation's
// warm-up estimates (an online run refines its own).
func (s *runState) Params() *Params { return s.prep.params }

// Sample returns n tuples drawn with replacement from the run's union, in
// the first join's output schema order, as the caller's own. Consecutive
// calls continue the stream: returned tuples are final. Join selection
// stays per-tuple — batching it across tuples would correlate samples
// that must be independent.
func (s *runState) Sample(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.sample(n, g, false)
}

// SampleView is Sample without the copy-out, for a consumer that folds
// or filters the batch while it holds the run: the tuples alias the run's
// arena and are valid until the run's next call or Release.
func (s *runState) SampleView(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.sample(n, g, true)
}

// SampleBatch forwards to Sample.
//
// Deprecated: Sample is the batch engine; the name stays for callers
// compiled against it.
func (s *runState) SampleBatch(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.Sample(n, g)
}

// sample is one call. The result entries and the arena are sized for a
// batch that ends with n samples buffered, so a call allocates each at
// most once; entries the last call left buffered are instances of one
// commit — only a call's last commit can overshoot its n — and their span
// moves to the front of the arena first (now, not when that batch was
// served: its view stayed readable until this call). The draw loop is
// timed by one clock reading (bookBatchTime), and the first n buffered
// samples are handed over: copied out as tuples over one flat backing
// (two allocations for the whole batch), or, as a view, as tuples over the
// arena itself, their headers in a slice the run keeps.
func (s *runState) sample(n int, g *rng.RNG, view bool) ([]relation.Tuple, error) {
	k := s.prep.base.ref.Len()
	if len(s.result) == 0 {
		s.arena = s.arena[:0]
	} else {
		s.arena = s.arena[:copy(s.arena[:k], s.arena[s.result[0].off:])]
		for i := range s.result {
			s.result[i].off = 0
		}
	}
	if cap(s.result) < n {
		s.result = append(make([]resultEntry, 0, n), s.result...)
	}
	if need := (n - len(s.result)) * k; need > 0 && cap(s.arena)-len(s.arena) < need {
		s.arena = append(make([]relation.Value, 0, len(s.arena)+need), s.arena...)
	}
	before, start := s.stats, time.Now()
	for len(s.result) < n {
		if err := s.draw(g); err != nil {
			return nil, err
		}
	}
	s.stats.bookBatchTime(&before, time.Since(start))
	var out []relation.Tuple
	if view {
		s.view = slices.Grow(s.view[:0], n)[:n]
		out = s.view
		for i := range out {
			off := s.result[i].off
			out[i] = s.arena[off : off+k : off+k]
		}
	} else {
		flat := make([]relation.Value, n*k)
		out = make([]relation.Tuple, n)
		for i := range out {
			off := s.result[i].off
			copy(flat[i*k:(i+1)*k], s.arena[off:off+k])
			out[i] = flat[i*k : (i+1)*k : (i+1)*k]
		}
	}
	s.result = s.result[:copy(s.result, s.result[n:])]
	return out, nil
}

// accept decides whether t, a candidate value of join j in j's schema
// order, is j's to return: a value belongs to the first join that
// contains it, f(t) = min{i : t ∈ J_i} by exact membership, so a draw an
// earlier join covers is rejected (line 8 of Algorithm 1, with f known
// instead of learned). That holds from a run's first draw, which is what
// makes a call of any size a uniform draw. A non-negative owner is f(t)
// as the walk that produced t just probed it, so no join is probed a
// second time; a negative one is probed here.
func (s *runState) accept(j int, t relation.Tuple, owner int) bool {
	if owner < 0 {
		owner = s.prep.base.owners.Owner(j, t)
	}
	if owner == j {
		return true
	}
	s.stats.RejectedDup++
	return false
}

// commit buffers mult instances of the accepted tuple t of join j as one
// arena span in reference schema order, recording the inclusion
// probability they were accepted under for backtracking.
func (s *runState) commit(j int, t relation.Tuple, mult int, prob float64) {
	off := len(s.arena)
	s.arena = s.prep.base.alignedAppend(j, t, s.arena)
	for i := 0; i < mult; i++ {
		s.result = append(s.result, resultEntry{off: off, join: j, prob: prob})
	}
	s.stats.Accepted += mult
	s.stats.Joins[j].Accepted += mult
}
