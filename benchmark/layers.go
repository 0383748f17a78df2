package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"sampleunion"
	"sampleunion/internal/core"
	"sampleunion/internal/histest"
	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/serve"
	"sampleunion/internal/tune"
	"sampleunion/internal/wal"
	"sampleunion/internal/walkest"
)

// warmupWalks is the library's default walk budget, spelled out where
// the benchmark builds core samplers the way Union.Prepare does.
const warmupWalks = 1000

// ladderNs are the request sizes every read ladder is replayed at: the
// dashboard draw, the large response, the bulk batch.
var ladderNs = []int{16, 1024, 4096}

// prepareCore builds the prepared sampler Union.Prepare builds for the
// fixture's options, from outside the session: same estimator, same
// seed stream, hence the same parameters and the same tuples per seed.
func prepareCore(joins []*join.Join, online bool, seed int64) (core.PreparedSampler, error) {
	g := rng.New(seed)
	var p core.PreparedSampler
	var err error
	if online {
		p, err = core.PrepareOnline(joins, core.OnlineConfig{WarmupWalks: warmupWalks}, g)
	} else {
		p, err = core.PrepareCover(joins, core.CoverConfig{
			Method:    core.MethodEW,
			Estimator: &core.RandomWalkEstimator{Joins: joins, Opts: walkest.Options{MaxWalks: warmupWalks}},
		}, g)
	}
	if err != nil {
		return nil, err
	}
	core.Prewarm(p)
	return p, nil
}

// layerProbe is what the read ladder runs against: a memory-only
// replica of the served union that only ladders touch, plus the
// engine's structures below its session, built over the replica's joins
// through the packages' exported APIs. Every rung then works on state
// that is equally warm. Differencing the served session (kept hot in
// cache by the workload) against a privately prepared core sampler
// (touched only by ladders) makes the session come out faster than the
// core call inside it.
type layerProbe struct {
	replica *env
	prepare interval           // how long core.Prepare* took over warm indexes
	j0      *join.Join         // first join of the union: the probed one
	sub     joinsample.Sampler // its subroutine (EW for cover, EO for online fixtures)
	core    core.PreparedSampler
	online  core.PreparedSampler // Algorithm 2 over the same joins (== core for online fixtures)
	keys    [][]relation.Value   // per non-root node of j0: existing join-key values
	pool    []relation.Tuple     // results of j0, for membership probes
}

const probeKeys = 1 << 14 // distinct probe positions, well past L2

func newLayerProbe(e *env, tr *tracer) (*layerProbe, error) {
	replica, err := setup(e.fx, e.seed, true, false, "")
	if err != nil {
		return nil, err
	}
	joins := replica.union.Joins()
	lp := &layerProbe{replica: replica, j0: joins[0]}
	t0 := time.Now()
	p, err := prepareCore(joins, e.fx.online, e.seed)
	if err != nil {
		return nil, err
	}
	lp.prepare = interval{t0, time.Now()}
	tr.sample("core.prepare_s", lp.prepare.end.Sub(t0).Seconds())
	lp.core, lp.online = p, p
	if !e.fx.online {
		if lp.online, err = prepareCore(joins, true, e.seed); err != nil {
			return nil, err
		}
	}
	if e.fx.online {
		lp.sub = joinsample.NewEO(lp.j0)
	} else {
		lp.sub = joinsample.NewEW(lp.j0)
	}
	g := rng.New(deriveSeed(e.seed, -4, 0))
	nodes := lp.j0.Nodes()
	lp.keys = make([][]relation.Value, len(nodes))
	for k := 1; k < len(nodes); k++ {
		col := nodes[k].Rel.Cols()[nodes[k].AttrPos]
		ks := make([]relation.Value, probeKeys)
		for i := range ks {
			ks[i] = col[g.Intn(len(col))]
		}
		lp.keys[k] = ks
	}
	lp.pool = lp.newTuples(probeKeys)
	filled, _ := lp.sub.SampleManyInto(lp.pool, make([]int, len(nodes)), 1<<30, g)
	if filled != len(lp.pool) {
		return nil, fmt.Errorf("layer probe: subroutine filled %d of %d pool tuples", filled, len(lp.pool))
	}
	return lp, nil
}

func (lp *layerProbe) newTuples(n int) []relation.Tuple {
	arity := lp.j0.OutputSchema().Len()
	flat := make([]relation.Value, n*arity)
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = flat[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return out
}

// sink keeps the probe loops' results alive.
var sink atomic.Int64

// ladderWorker is one worker's scratch for replaying read ladders.
type ladderWorker struct {
	w     *worker
	out   []relation.Tuple
	rowOf []int
	pos   int // cursor into the probe keys and pool
}

func newLadderWorker(lp *layerProbe) *ladderWorker {
	w := newWorker(lp.replica)
	return &ladderWorker{w: w, out: lp.newTuples(ladderNs[len(ladderNs)-1]), rowOf: make([]int, len(lp.j0.Nodes()))}
}

// sameTuples sends one logical request (n, seed) through the four upper
// read boundaries — core, session, handler without HTTP, loopback HTTP —
// and requires identical tuples from all of them. It must run while
// nothing mutates the data.
func (lw *ladderWorker) sameTuples(lp *layerProbe, n int, seed int64) error {
	e := lp.replica
	coreOut, err := lp.core.NewRun().SampleBatch(n, rng.New(seed))
	if err != nil {
		return err
	}
	sessOut, _, err := e.sess.SampleBatchSeeded(n, seed)
	if err != nil {
		return err
	}
	lw.w.sampleBody(n, seed)
	rec := httptest.NewRecorder()
	e.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sample", bytes.NewReader(lw.w.body.Bytes())))
	loop := lw.w.postSample(n, seed)
	if loop.err != nil {
		return loop.err
	}
	lw.w.resp.Reset()
	lw.w.resp.Write(rec.Body.Bytes())
	handler := lw.w.sampleResult(n, rec.Code)
	if handler.err != nil {
		return handler.err
	}
	c, s := digestTuples(coreOut), digestTuples(sessOut)
	if c != s || handler.digest != s || loop.digest != s {
		return fmt.Errorf("n=%d seed=%d: boundaries delivered different tuples (core %x session %x handler %x loopback %x)",
			n, seed, c, s, handler.digest, loop.digest)
	}
	return nil
}

// readLadder replays a request of n tuples at every read boundary,
// deepest first: the index probes a rejection-free draw of n tuples
// needs, n membership tests, n subroutine draws, then the request
// through core, the session, the handler without HTTP, and loopback
// HTTP. Every rung is rehearsed and every invocation draws its own
// stream derived from seed: replaying one stream up the ladder lets
// each rung warm the cache for the next (the session then measures
// faster than the core call inside it), whereas fresh streams leave
// every rung's rows equally cold, as a real request finds them.
// sameTuples covers the same-seed-same-tuples property separately.
func (lw *ladderWorker) readLadder(tr *tracer, lp *layerProbe, opID, n int, seed int64) error {
	e := lp.replica
	var (
		tries, filled    int
		stats            *sampleunion.Stats
		coreErr, sessErr error
		rec              *httptest.ResponseRecorder
		loop             opResult
		calls            int64
	)
	fresh := func() int64 {
		calls++
		return deriveSeed(seed, -7, calls)
	}
	nodes := lp.j0.Nodes()
	handler := e.srv.Handler()
	durs := tr.ladder(opID, n, true, []rung{
		{"index_probe", "relation", func() {
			acc := 0
			for i := 0; i < n; i++ {
				for k := 1; k < len(nodes); k++ {
					acc += len(nodes[k].Rel.Matches(nodes[k].AttrPos, lp.keys[k][lw.pos&(probeKeys-1)]))
				}
				lw.pos++
			}
			sink.Add(int64(acc))
		}},
		{"contains", "join", func() {
			acc := 0
			for i := 0; i < n; i++ {
				if lp.j0.Contains(lp.pool[lw.pos&(probeKeys-1)]) {
					acc++
				}
				lw.pos++
			}
			sink.Add(int64(acc))
		}},
		{"subroutine_draw", "joinsample", func() {
			filled, tries = lp.sub.SampleManyInto(lw.out[:n], lw.rowOf, 1<<30, rng.New(fresh()))
		}},
		{"new_run+sample_batch", "core", func() {
			_, coreErr = lp.core.NewRun().SampleBatch(n, rng.New(fresh()))
		}},
		{"sample_batch_seeded", "session", func() {
			_, stats, sessErr = e.sess.SampleBatchSeeded(n, fresh())
		}},
		{"handler", "serve", func() {
			lw.w.sampleBody(n, fresh())
			rec = httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sample", bytes.NewReader(lw.w.body.Bytes())))
		}},
		{"loopback_post", "http", func() {
			loop = lw.w.postSample(n, fresh())
		}},
	})
	if coreErr != nil || sessErr != nil || loop.err != nil || rec.Code != http.StatusOK || filled != n {
		return fmt.Errorf("read ladder n=%d: core %v, session %v, handler status %d, loopback %v, subroutine filled %d",
			n, coreErr, sessErr, rec.Code, loop.err, filled)
	}
	us := func(d int64) float64 { return float64(d) / 1e3 }
	tr.sample("join.contains_ns", float64(durs[1])/float64(n))
	tr.sample("joinsample.draw_ns", float64(durs[2])/float64(tries))
	tr.count("joinsample.filled", float64(filled))
	tr.count("joinsample.tries", float64(tries))
	tr.count("core.accepted", float64(stats.Accepted))
	tr.count("core.total_draws", float64(stats.TotalDraws))
	tr.count("core.rejected_dup", float64(stats.RejectedDup))
	tr.count("core.revised", float64(stats.Revised))
	switch n {
	case 16:
		tr.sample("core.batch_us_n16", us(durs[3]))
		tr.sample("session.self_us_n16", us(durs[4]-durs[3]))
		tr.sample("serve.handler_self_us_n16", us(durs[5]-durs[4]))
		tr.sample("http.loopback_self_us_n16", us(durs[6]-durs[5]))
	case 1024:
		tr.sample("serve.handler_self_us_n1024", us(durs[5]-durs[4]))
		tr.sample("http.loopback_self_us_n1024", us(durs[6]-durs[5]))
		tr.sample("serve.response_bytes_per_tuple", float64(lw.w.respBytes)/float64(n))
		// The same request through Algorithm 2, beside the ladder.
		run := lp.online.NewRun()
		t0 := time.Now()
		_, err := run.SampleBatch(n, rng.New(fresh()))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("online core n=%d: %w", n, err)
		}
		tr.record("new_run+sample_batch_online", "core", opID, -1, t0, t1)
		tr.sample("core.batch_us_n1024_online", us(t1.Sub(t0).Nanoseconds()))
		st := run.Stats()
		tr.count("online.accepted", float64(st.Accepted))
		tr.count("online.reuse_accepted", float64(st.ReuseAccepted))
		tr.count("online.backtracks", float64(st.Backtracks))
	case 4096:
		tr.sample("core.batch_us_n4096", us(durs[3]))
		tr.sample("session.self_us_n4096", us(durs[4]-durs[3]))
	}
	return nil
}

// scratchLog is a stand-alone copy of an append target with its own
// RelationLog: the lower write rungs append to it, so the served
// relation is not filled with replayed rows.
type scratchLog struct {
	rel *relation.Relation
	log *wal.RelationLog
}

// newScratch copies src; with a dir the copy tees into a RelationLog
// there, configured like the server's.
func newScratch(src *relation.Relation, dir string) (*scratchLog, error) {
	rel := relation.New(src.Name()+"_scratch", src.Schema())
	ids, _, _ := src.LiveRows()
	rel.AppendRowIDs(src, ids)
	s := &scratchLog{rel: rel}
	if dir == "" {
		return s, nil
	}
	cfg := serverConfig(dir)
	rl, err := wal.OpenRelationLog(dir, rel, wal.RelationLogOptions{
		Options: wal.Options{Policy: cfg.FsyncPolicy, Interval: cfg.FsyncInterval},
	})
	if err != nil {
		return nil, err
	}
	rl.Attach()
	s.log = rl
	return s, nil
}

// ladderSerialBase keeps write-ladder append serials clear of the
// workload's own (rounds × opsPerRound stays far below it).
const ladderSerialBase = 1 << 24

// writeLadders replays a 32-row append at every write boundary, deepest
// first, iters times: Relation.AppendRows alone, with the WAL tee, with
// Commit, on the served relation followed by Session.Refresh, through
// the append handler in-process, and over loopback HTTP. Every rung
// appends its own fresh rows. It also times checkpoints of a relation
// the size of the append target.
func writeLadders(tr *tracer, e *env, iters int) error {
	const b = 32
	target := e.fx.appendTargets()[0]
	src := e.rels[target]
	scratchDir := filepath.Join(e.dataDir, "scratch")
	plain, err := newScratch(src, "")
	if err != nil {
		return err
	}
	tee, err := newScratch(src, filepath.Join(scratchDir, "tee"))
	if err != nil {
		return err
	}
	defer tee.log.Close()
	commit, err := newScratch(src, filepath.Join(scratchDir, "commit"))
	if err != nil {
		return err
	}
	defer commit.log.Close()

	w := newWorker(e)
	handler := e.srv.Handler()
	serial := ladderSerialBase
	next := func() [][]int64 {
		serial++
		return e.fx.appendRows(e.fx.sf, e.seed, serial, b)
	}
	for it := 0; it < iters; it++ {
		var rows [4][]relation.Tuple
		for i := range rows {
			rows[i] = toTuples(next())
		}
		w.appendBody(next())
		handlerBody := append([]byte(nil), w.body.Bytes()...)
		idemKey := fmt.Sprintf("ladder-%d-%d", e.seed, it)
		appendReq := func() *http.Request {
			req := httptest.NewRequest(http.MethodPost, "/relation/"+target+"/append", bytes.NewReader(handlerBody))
			req.Header.Set("Idempotency-Key", idemKey)
			return req
		}
		req, rec := appendReq(), httptest.NewRecorder()
		loopRows := next()
		var commitErr, refreshErr, loopErr error
		var commitAt, refreshAt [2]time.Time
		first := len(tr.spans) // the ladder's spans take ids first..first+5
		durs := tr.ladder(it, b, false, []rung{
			{"append_rows", "relation", func() { plain.rel.AppendRows(rows[0]) }},
			{"append_rows+tee", "wal", func() { tee.rel.AppendRows(rows[1]) }},
			{"append_rows+tee+commit", "wal", func() {
				commit.rel.AppendRows(rows[2])
				commitAt[0] = time.Now()
				commitErr = commit.log.Commit()
				commitAt[1] = time.Now()
			}},
			{"append_rows+tee+refresh", "session", func() {
				src.AppendRows(rows[3])
				refreshAt[0] = time.Now()
				refreshErr = e.sess.Refresh()
				refreshAt[1] = time.Now()
			}},
			{"append_handler", "serve", func() { handler.ServeHTTP(rec, req) }},
			{"loopback_append", "http", func() {
				w.appendBody(loopRows)
				_, loopErr = w.post("/relation/"+target+"/append", "")
			}},
		})
		if commitErr != nil || refreshErr != nil || loopErr != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("write ladder: commit %v, refresh %v, handler status %d, loopback %v", commitErr, refreshErr, rec.Code, loopErr)
		}
		e.acked[target] += 3 * b
		us := func(d int64) float64 { return float64(d) / 1e3 }
		tr.sample("relation.append_us_b32", us(durs[0]))
		tr.sample("wal.tee_self_us_b32", us(durs[1]-durs[0]))
		// Commit and Refresh are called directly, so they get spans of
		// their own inside their rungs rather than a difference of rungs.
		tr.record("commit", "wal", it, first+2, commitAt[0], commitAt[1])
		tr.record("refresh", "session", it, first+3, refreshAt[0], refreshAt[1])
		tr.sample("wal.commit_us", us(commitAt[1].Sub(commitAt[0]).Nanoseconds()))
		tr.sample("session.refresh_ms", us(refreshAt[1].Sub(refreshAt[0]).Nanoseconds())/1e3)
		// The handler's own share cannot be had as a difference of rungs:
		// the two rungs' Refreshes differ by more than it. Resending the
		// batch under its Idempotency-Key runs everything the handler
		// does around the append — decode, registry, lock, dedupe,
		// encode — and nothing below it.
		req, rec = appendReq(), httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		t1 := time.Now()
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"deduped":true`)) {
			return fmt.Errorf("write ladder: resend was not deduplicated: status %d %s", rec.Code, rec.Body.Bytes())
		}
		tr.record("append_handler_deduped", "serve", it, -1, t0, t1)
		tr.sample("serve.append_self_us", us(t1.Sub(t0).Nanoseconds()))
		if it%4 == 3 {
			t0 := time.Now()
			if err := commit.log.Checkpoint(); err != nil {
				return fmt.Errorf("write ladder: checkpoint: %w", err)
			}
			t1 := time.Now()
			tr.record("checkpoint", "wal", it, -1, t0, t1)
			tr.sample("wal.checkpoint_ms", float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
	}
	return nil
}

// targetProbe times probes of the append target's join-key index under
// the given metric name: called before any append it sees the pure CSR
// index, called after the write ladder the delta overlay the appends
// left behind — same keys, same loop, so the two compare.
func targetProbe(tr *tracer, e *env, lp *layerProbe, name string) {
	nodes := lp.j0.Nodes()
	k := len(nodes) - 1
	target := e.rels[e.fx.appendTargets()[0]]
	for k > 0 && nodes[k].Rel != target {
		k--
	}
	if k == 0 {
		k = len(nodes) - 1 // the target is the root: probe the last edge instead
	}
	const per = 4096
	for rep := 0; rep < 32; rep++ {
		acc := 0
		t0 := time.Now()
		for i := 0; i < per; i++ {
			acc += len(nodes[k].Rel.Matches(nodes[k].AttrPos, lp.keys[k][(rep*per+i)&(probeKeys-1)]))
		}
		d := time.Since(t0)
		sink.Add(int64(acc))
		tr.sample(name, float64(d.Nanoseconds())/per)
	}
}

// replCatchup measures append ack -> a read on an in-process follower
// sees the rows: its relation at the primary's version and its session
// refreshed. (The relation version alone is there before the ack: the
// primary ships the frame before it runs its own Refresh.)
//
// The follower gets a primary of its own — the workload's fixture set up
// once more, durable — that is appended to on one relation, one append at
// a time. Following the workload's server instead made the follower
// catch up on every relation the workload had appended to at once, each
// relation's replicator refreshing the shared session while the others
// were still applying; Join.ExactWeights does not survive that (index
// out of range, seen on ingest_mixed), and the crash is the library's,
// not something a benchmark run may die of.
func replCatchup(tr *tracer, fx *fixture, seed int64, dir string, appends int) error {
	target := fx.appendTargets()[0]
	const heartbeat = 20 * time.Millisecond
	e, err := setup(fx, seed, true, true, dir)
	if err != nil {
		return err
	}
	defer e.close()
	cfg := serverConfig("")
	cfg.FollowPrimary = e.ts.URL
	cfg.ReplHeartbeat = heartbeat
	f := serve.New(cfg)
	defer f.Close()
	if err := f.StartFollower(heartbeat); err != nil {
		return err
	}
	primary := e.rels[target]
	var follower *relation.Relation
	var followerSess *sampleunion.Session
	caughtUp := func() bool {
		return follower.Version() == primary.Version() && !followerSess.Stale()
	}
	waitFor := func(what string, cond func() bool) error {
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("replication: timed out waiting for %s", what)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	err = waitFor("the follower to prepare and catch up", func() bool {
		fe, ok := f.Registry().Lookup(e.entry.Key)
		if !ok {
			time.Sleep(heartbeat)
			return false
		}
		follower, followerSess = fe.Rels[target], fe.Sess
		return caughtUp()
	})
	if err != nil {
		return err
	}
	w := newWorker(e)
	for i := 0; i < appends; i++ {
		w.appendBody(e.fx.appendRows(e.fx.sf, e.seed, ladderSerialBase*2+i, 32))
		if _, err := w.post("/relation/"+target+"/append", ""); err != nil {
			return err
		}
		t0 := time.Now()
		if err := waitFor("follower catch-up", caughtUp); err != nil {
			return err
		}
		t1 := time.Now()
		tr.record("ack_to_follower_read", "repl", i, -1, t0, t1)
		tr.sample("repl.catchup_ms", float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	return nil
}

// interval is a measured stretch of time, recorded as a span once its
// parent span exists.
type interval struct{ start, end time.Time }

// setupTimes are the pieces of set-up setupLadder timed.
type setupTimes struct {
	gen, index, walk, hist, prepare interval
}

// setupLadder times the pieces of set-up on fresh data, deepest first:
// TPC-H generation, index build, the two estimators, the tuning plan,
// and a cold Union.Prepare; the caller adds core.Prepare and the cold
// Registry.Get and records the spans. It also measures the one-caller
// sharded speed-up, which needs its own prepared sessions anyway.
func setupLadder(tr *tracer, fx *fixture, seed int64) (st setupTimes, err error) {
	t0 := time.Now()
	u, rels, err := fx.buildUnion(fx.sf, seed)
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	for _, r := range rels {
		for a := 0; a < r.Arity(); a++ {
			r.Index(a)
		}
	}
	t2 := time.Now()
	joins := u.Joins()
	wp, err := (&core.RandomWalkEstimator{Joins: joins, Opts: walkest.Options{MaxWalks: warmupWalks}}).Params(rng.New(seed))
	if err != nil {
		return st, err
	}
	t3 := time.Now()
	if _, err := (&core.HistogramEstimator{Joins: joins, Opts: histest.Options{Sizes: histest.SizeEW}}).Params(nil); err != nil {
		return st, err
	}
	t4 := time.Now()
	stats := make([]tune.JoinStats, len(joins))
	var total float64
	for _, s := range wp.JoinSizes {
		total += s
	}
	for j, jn := range joins {
		var rows int64
		for _, n := range jn.Nodes() {
			rows += int64(n.Rel.Len())
		}
		stats[j] = tune.JoinStats{Walks: warmupWalks, Size: wp.JoinSizes[j], RelHalfWidth: 0.05, Rows: rows, Share: wp.JoinSizes[j] / total}
	}
	const plans = 1000
	t5 := time.Now()
	for i := 0; i < plans; i++ {
		sink.Add(int64(tune.Build(tune.Config{WalkBudget: warmupWalks}, stats).MaxDrawsPerSelection))
	}
	t6 := time.Now()
	tr.sample("tpch.gen_s", t1.Sub(t0).Seconds())
	tr.sample("relation.index_build_s", t2.Sub(t1).Seconds())
	tr.sample("walkest.warmup_s", t3.Sub(t2).Seconds())
	tr.sample("histest.warmup_s", t4.Sub(t3).Seconds())
	tr.sample("tune.plan_us", float64(t6.Sub(t5).Nanoseconds())/1e3/plans)

	// Cold Union.Prepare on data nothing has touched yet.
	u2, _, err := fx.buildUnion(fx.sf, seed)
	if err != nil {
		return st, err
	}
	t7 := time.Now()
	s1, err := u2.Prepare(fx.options(seed))
	if err != nil {
		return st, err
	}
	t8 := time.Now()
	tr.sample("session.prepare_s", t8.Sub(t7).Seconds())
	st = setupTimes{gen: interval{t0, t1}, index: interval{t1, t2}, walk: interval{t2, t3}, hist: interval{t3, t4}, prepare: interval{t7, t8}}

	o2 := fx.options(seed)
	o2.Shards = 2
	s2, err := u2.Prepare(o2)
	if err != nil {
		return st, err
	}
	rate := func(s *sampleunion.Session) (float64, error) {
		const n = 4096
		tuples := 0
		start := time.Now()
		for k := 0; time.Since(start) < 400*time.Millisecond; k++ {
			out, _, err := s.SampleBatchSeeded(n, deriveSeed(seed, -5, int64(k)))
			if err != nil {
				return 0, err
			}
			tuples += len(out)
		}
		return float64(tuples) / time.Since(start).Seconds(), nil
	}
	r1, err := rate(s1)
	if err != nil {
		return st, err
	}
	r2, err := rate(s2)
	if err != nil {
		return st, err
	}
	tr.sample("core.sharded_speedup_s2", r2/r1)
	return st, nil
}

// estimatorErrors measures both estimators' union-size error against
// the exact size on the twin.
func estimatorErrors(tr *tracer, fx *fixture, seed int64) error {
	u, _, err := fx.buildUnion(fx.twinSF, seed)
	if err != nil {
		return err
	}
	exact, err := u.ExactUnionSize()
	if err != nil {
		return err
	}
	for name, wu := range map[string]sampleunion.Warmup{
		"walkest.rel_err": sampleunion.WarmupRandomWalk,
		"histest.rel_err": sampleunion.WarmupHistogram,
	} {
		est, err := u.EstimateUnionSize(sampleunion.Options{Seed: seed, Warmup: wu})
		if err != nil {
			return err
		}
		d := est - float64(exact)
		if d < 0 {
			d = -d
		}
		tr.sample(name, d/float64(exact))
	}
	return nil
}

// allocsPer reports mallocs per call of fn, measured with nothing else
// of the benchmark running.
func allocsPer(runs int, fn func()) float64 {
	fn()
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

func medianTime(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(xs)
}

// quietProbes measures what needs an otherwise idle process: exact
// allocation counts, per-run set-up, the warm registry lookup, and the
// aggregate's cost on top of its draw.
func quietProbes(tr *tracer, e *env, lp *layerProbe) {
	seed := deriveSeed(e.seed, -6, 0)
	tr.sample("session.allocs_per_call_n16", allocsPer(200, func() { e.sess.SampleBatchSeeded(16, seed) }))
	tr.sample("session.allocs_per_tuple_n4096", allocsPer(20, func() { e.sess.SampleBatchSeeded(4096, seed) })/4096)
	w := newWorker(e)
	w.sampleBody(16, seed)
	body := append([]byte(nil), w.body.Bytes()...)
	handler := e.srv.Handler()
	build := func() (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/sample", bytes.NewReader(body))
	}
	harness := allocsPer(200, func() { build() })
	tr.sample("serve.allocs_per_request_n16", allocsPer(200, func() {
		rec, req := build()
		handler.ServeHTTP(rec, req)
	})-harness)

	k := int64(0)
	tr.sample("core.run_setup_us", medianTime(200, func() {
		k++
		lp.core.NewRun().SampleBatch(1, rng.New(seed+k))
	})/1e3)
	decl := e.fx.decl(e.seed)
	reg := e.srv.Registry()
	tr.sample("serve.registry_get_us", medianTime(50, func() {
		for i := 0; i < 100; i++ {
			reg.Get(decl)
		}
	})/100/1e3)
	// Aggregate and plain draw alternate, so drift hits both alike.
	pred, n := e.fx.auxPredicate(), 2048
	for i := 0; i < 41; i++ {
		t0 := time.Now()
		e.sess.ApproxCount(pred, n)
		t1 := time.Now()
		e.sess.SampleBatch(n)
		t2 := time.Now()
		tr.sample("aqp.count_self_us", float64(t1.Sub(t0)-t2.Sub(t1))/1e3)
	}
}

// serverCounters reads the server's own /metrics: checkpoints fired.
func serverCounters(e *env) (checkpoints float64, err error) {
	resp, err := e.client.Get(e.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Durability *serve.DurabilitySnapshot `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, err
	}
	if m.Durability == nil {
		return 0, fmt.Errorf("server reports no durability block")
	}
	return float64(m.Durability.Checkpoints), nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// gcCounters snapshots the runtime's GC cycle count and CPU classes.
type gcCounters struct {
	cycles       uint64
	gcCPU, total float64
}

func readGC() gcCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCounters{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

// calibrate is a fixed ALU + pointer-chase loop, printed beside the
// numbers as evidence of host speed; nothing is normalised by it.
func calibrate() float64 {
	const size = 1 << 22 // 32 MiB of int64: past L3
	next := make([]int64, size)
	for i := range next {
		next[i] = int64((i*7919 + 1) & (size - 1))
	}
	t0 := time.Now()
	x, p := uint64(88172645463325252), int64(0)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p = next[(p+int64(x&255))&(size-1)]
	}
	sink.Add(p)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
