package main

import (
	"fmt"
	"math"
	"time"

	"sampleunion"
	"sampleunion/internal/reftest"
	"sampleunion/internal/relation"
	"sampleunion/internal/serve"
)

// checker collects failed output checks; any failure makes the run
// incorrect and the process exit non-zero.
type checker struct {
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// contains checks that every drawn tuple is a result of at least one
// of the union's joins.
func (c *checker) contains(u *sampleunion.Union, out []relation.Tuple) {
	bad := 0
	for _, t := range out {
		if !u.Contains(t) {
			bad++
		}
	}
	if bad > 0 {
		c.failf("contains: %d of %d drawn tuples are in no join of the union", bad, len(out))
	}
}

func equalTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// repeatable checks that a seeded library draw repeated gives identical
// tuples and, on a served env, that POST /sample with that seed returns
// exactly Session.SampleBatchSeeded's tuples. It must run while no
// append is in flight.
func (c *checker) repeatable(e *env) {
	n, seed := e.fx.primaryN, deriveSeed(e.seed, -2, 0)
	a, _, err := e.sess.SampleBatchSeeded(n, seed)
	if err != nil {
		c.failf("repeatable: %v", err)
		return
	}
	b, _, err := e.sess.SampleBatchSeeded(n, seed)
	if err != nil || !equalTuples(a, b) {
		c.failf("repeatable: SampleBatchSeeded(%d, %d) repeated differs (err %v)", n, seed, err)
	}
	if e.ts == nil {
		return
	}
	w := newWorker(e)
	w.keep = true
	res := w.postSample(n, seed)
	if res.err != nil || !equalTuples(a, res.out) {
		c.failf("repeatable: POST /sample n=%d seed=%d differs from Session.SampleBatchSeeded (err %v)", n, seed, res.err)
	}
}

// chiZ is the normal-deviate tail of the chi-square acceptance test,
// the value internal/reftest uses: a pass is expected for every seed
// unless the sampler is biased.
const chiZ = 5

// drawsPerResult sizes the twin draw as one run of that many draws per
// union result: long enough that the cover sampler's value-to-join
// record has converged and its revisions have removed early copies.
const drawsPerResult = 20

// shareTolerance bounds, for the online sampler, each cover region's
// share of the draws relative to its exact share.
const shareTolerance = 0.30

// reference enumerates the union by brute force (internal/reftest
// shares nothing with the engine's indexes or samplers) and assigns
// every result its cover region: the first join that produces it.
func reference(u *sampleunion.Union) (union map[string]relation.Tuple, region map[string]int, regionSize []int) {
	out := u.OutputSchema()
	perJoin := make([]map[string]relation.Tuple, len(u.Joins()))
	for i, j := range u.Joins() {
		nodes := j.Nodes()
		rels := make([]*relation.Relation, len(nodes))
		for k := range nodes {
			rels[k] = nodes[k].Rel
		}
		perJoin[i] = reftest.JoinResults(rels, out)
	}
	union, _ = reftest.UnionResults(perJoin)
	region = make(map[string]int, len(union))
	regionSize = make([]int, len(perJoin))
	for k := range union {
		for j := range perJoin {
			if _, ok := perJoin[j][k]; ok {
				region[k] = j
				regionSize[j]++
				break
			}
		}
	}
	return union, region, regionSize
}

// uniform draws one long seeded run from sess and tests it against the
// brute-force union: exact membership; the session's union-size
// estimate within 15 % of the exact size; and the distribution.
//
// The paper's sampler is uniform under exact parameters; under the
// estimated ones a session runs with, it picks cover region j with
// probability cover_j/|U| (its own estimates) and a result uniformly
// within the region. The cover sampler is held to exactly that by a
// per-result chi-square whose expected weights come from the session's
// estimated cover sizes and the exact region sizes; how far the
// estimates are from the truth is what the union-size clause bounds.
// Algorithm 2 delivers results in multiplicities (its instance system),
// so its per-result counts are over-dispersed and a chi-square on them
// would reject a correct sampler; it is held to exact membership, and
// each cover region's share of the draws within shareTolerance of its
// exact share — the check internal/reftest applies to this
// configuration, plus the shares.
func (c *checker) uniform(label string, sess *sampleunion.Session, seed int64) {
	union, region, regionSize := reference(sess.Union())
	if len(union) == 0 {
		c.failf("%s: reference union is empty", label)
		return
	}
	draws, _, err := sess.SampleBatchSeeded(drawsPerResult*len(union), seed)
	if err != nil {
		c.failf("%s: %v", label, err)
		return
	}
	obs := make(map[string]int, len(union))
	drawn := make([]int, len(regionSize))
	for _, t := range draws {
		k := relation.TupleKey(t)
		if _, ok := union[k]; !ok {
			c.failf("%s: sampled tuple %v is not a reference result", label, t)
			return
		}
		obs[k]++
		drawn[region[k]]++
	}
	if est, exact := sess.UnionSize(), float64(len(union)); math.Abs(est-exact) > 0.15*exact {
		c.failf("%s: UnionSize %.0f not within 15%% of exact %.0f", label, est, exact)
	}
	if sess.Options().Online {
		for j, n := range regionSize {
			want := float64(n) / float64(len(union))
			got := float64(drawn[j]) / float64(len(draws))
			if math.Abs(got-want) > shareTolerance*want {
				c.failf("%s: cover region %d drew share %.4f, exact share %.4f", label, j, got, want)
			}
		}
		return
	}
	cover := sess.Estimate().CoverSizes
	weights := make(map[string]float64, len(union))
	for k, j := range region {
		weights[k] = cover[j] / float64(regionSize[j])
	}
	stat, df := reftest.ChiSquare(obs, weights)
	if crit := reftest.ChiSquareCritical(df, chiZ); stat > crit {
		c.failf("%s: chi-square %.1f > %.1f (df %d): draws do not follow the sampler's cover distribution", label, stat, crit, df)
	}
}

// twinAppends is how many append batches the post-append twin check
// applies per target relation.
const twinAppends = 2

// twin runs the uniformity check on a small twin of the workload — the
// same union shape and options at a scale brute force can enumerate —
// and, for workloads that append, again after appends and a Refresh.
func (c *checker) twin(fx *fixture, seed int64) {
	u, rels, err := fx.buildUnion(fx.twinSF, seed)
	if err != nil {
		c.failf("twin: %v", err)
		return
	}
	sess, err := u.Prepare(fx.options(seed))
	if err != nil {
		c.failf("twin: %v", err)
		return
	}
	c.uniform("twin", sess, deriveSeed(seed, -3, 0))
	if fx.aux != auxAppend {
		return
	}
	targets := fx.appendTargets()
	for ctr := 0; ctr < twinAppends*len(targets); ctr++ {
		rels[targets[ctr%len(targets)]].AppendRows(toTuples(fx.appendRows(fx.twinSF, seed, ctr, fx.auxN)))
	}
	if err := sess.Refresh(); err != nil {
		c.failf("twin: refresh after appends: %v", err)
		return
	}
	c.uniform("twin post-append", sess, deriveSeed(seed, -3, 1))
}

// reopened closes the env's server, reopens its data dir in a fresh
// server and checks that every append target holds exactly its
// generated rows plus the acked rows, none twice. It returns how long
// reopen + RestoreSessions took; the env serves again afterwards.
func (c *checker) reopened(e *env) time.Duration {
	e.closeServer()
	t0 := time.Now()
	if err := e.openServerRestored(); err != nil {
		c.failf("reopen: %v", err)
		return 0
	}
	took := time.Since(t0)
	ucol := e.fx.uniqueCol()
	for name, base := range e.baseRows {
		rel := e.rels[name]
		want := base + e.acked[name]
		if rel.Len() != want || rel.LiveLen() != want {
			c.failf("reopen: %s has %d rows (%d live), want %d generated + %d acked", name, rel.Len(), rel.LiveLen(), base, e.acked[name])
			continue
		}
		seen := make(map[relation.Value]bool, e.acked[name])
		for i := base; i < rel.Len(); i++ {
			v := rel.Value(i, ucol)
			if v < uniqueBase || seen[v] {
				c.failf("reopen: %s row %d is a duplicate or not an acked row (unique column %d)", name, i, v)
				break
			}
			seen[v] = true
		}
	}
	return took
}

// openServerRestored opens a server over the existing data dir and
// restores its sessions from the boot manifest, the way serverd boots.
func (e *env) openServerRestored() error {
	e.srv = serve.New(serverConfig(e.dataDir))
	n, err := e.srv.RestoreSessions()
	if err != nil {
		e.srv.Close()
		e.srv = nil
		return err
	}
	if n != 1 {
		e.srv.Close()
		e.srv = nil
		return fmt.Errorf("restored %d sessions, want 1", n)
	}
	prepares := e.srv.Registry().Stats().Prepares
	if err := e.attachServer(); err != nil {
		return err
	}
	if got := e.srv.Registry().Stats().Prepares; got != prepares {
		return fmt.Errorf("restored session was not warm: %d prepares after Get, %d before", got, prepares)
	}
	return nil
}
