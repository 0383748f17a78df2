package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/serve"
	"sampleunion/internal/tpch"
	"sampleunion/internal/wal"
)

// workers is the closed-loop client count: one per core of the
// reference host, so both cores stay busy and no P idles and wakes per
// request (README, "Noise findings").
const workers = 2

// overlapScale is the TPC-H overlap scale every workload uses.
const overlapScale = 0.2

// auxKind names a workload's secondary operation.
type auxKind int

const (
	auxWhere  auxKind = iota // predicate draw through the batch engine
	auxCount                 // approximate COUNT aggregate
	auxLarge                 // large /sample response
	auxAppend                // durable append ack
)

// fixture is one workload's definition: the data, how it is served,
// and the fixed per-round op schedule.
type fixture struct {
	name   string
	why    string
	tpch   string  // built-in union: UQ1 or UQ3
	sf     float64 // scale factor of the measured data
	twinSF float64 // scale factor of the brute-force-checkable twin
	online bool    // Options.Online (Algorithm 2)
	http   bool    // ops go through loopback HTTP
	wal    bool    // server keeps a durable data dir

	primaryN    int // tuples per primary op
	aux         auxKind
	auxN        int // tuples (or rows) per aux op
	auxEvery    int // every auxEvery-th op of a worker is aux
	opsPerRound int // sized for a round of one to two seconds on the reference host
}

var fixtures = []*fixture{
	{
		name: "lib_bulk", tpch: "UQ1", sf: 100, twinSF: 0.5,
		why:      "closed loop, 2 workers; training-data loader: 4096-tuple library batches over DRAM-resident UQ1, so core/joinsample/relation probes dominate and serve/wal do nothing",
		primaryN: 4096, aux: auxWhere, auxN: 512, auxEvery: 5, opsPerRound: 300,
	},
	{
		name: "lib_online", tpch: "UQ3", sf: 20, twinSF: 1, online: true,
		why:      "closed loop, 2 workers; the paper's Algorithm 2 (walks, reuse pool, backtracking) plus an aggregate over tree and split chain joins; allocation- and GC-sensitive",
		primaryN: 1024, aux: auxCount, auxN: 2048, auxEvery: 5, opsPerRound: 1600,
	},
	{
		name: "serve_read", tpch: "UQ1", sf: 50, twinSF: 0.5, http: true,
		why:      "closed loop, 2 workers; dashboard reads: 16-tuple POST /sample over loopback HTTP, where decode, registry, per-run set-up, JSON and HTTP outweigh the draw itself",
		primaryN: 16, aux: auxLarge, auxN: 1024, auxEvery: 20, opsPerRound: 3000,
	},
	{
		name: "ingest_mixed", tpch: "UQ1", sf: 50, twinSF: 0.5, http: true, wal: true,
		why:      "closed loop, 2 workers; writes beside reads: durable appends (WAL, commit, Session.Refresh, checkpoints) while the same 16-tuple draws run over delta-overlay indexes",
		primaryN: 16, aux: auxAppend, auxN: 32, auxEvery: 16, opsPerRound: 900,
	},
}

func fixtureByName(name string) *fixture {
	for _, fx := range fixtures {
		if fx.name == name {
			return fx
		}
	}
	return nil
}

// scaled returns a copy sized for -quick: a tenth of the data and of
// the ops, enough to exercise every code path in seconds.
func (fx *fixture) scaled() *fixture {
	q := *fx
	q.sf = fx.sf / 10
	q.opsPerRound = fx.opsPerRound / 10
	return &q
}

// decl is the union declaration the serving layer keys its registry by.
func (fx *fixture) decl(seed int64) serve.UnionDecl {
	return serve.UnionDecl{
		Workload: fx.tpch, SF: fx.sf, Overlap: overlapScale, DataSeed: seed,
		Options: serve.OptionsDecl{Online: fx.online, Seed: seed},
	}
}

// options are the library options of the workload — random-walk
// warm-up, EW, cover sampler, plus the seed and the online switch: what
// decl resolves to on the server. The warm-up is spelled out because
// the zero Options value selects the histogram warm-up (whatever the
// field's doc comment says), whose union-size estimate is several times
// off on these unions.
func (fx *fixture) options(seed int64) sampleunion.Options {
	return sampleunion.Options{Seed: seed, Online: fx.online, Warmup: sampleunion.WarmupRandomWalk}
}

// buildUnion generates the fixture's TPC-H data at sf and wraps it in a
// union, returning the base relations by name.
func (fx *fixture) buildUnion(sf float64, seed int64) (*sampleunion.Union, map[string]*relation.Relation, error) {
	cfg := tpch.Config{SF: sf, Overlap: overlapScale, Seed: seed}
	build := tpch.UQ1
	if fx.tpch == "UQ3" {
		build = tpch.UQ3
	}
	w, err := build(cfg)
	if err != nil {
		return nil, nil, err
	}
	u, err := sampleunion.NewUnion(w.Joins...)
	if err != nil {
		return nil, nil, err
	}
	rels := make(map[string]*relation.Relation)
	for _, j := range w.Joins {
		for _, n := range j.Nodes() {
			rels[n.Rel.Name()] = n.Rel
		}
	}
	return u, rels, nil
}

// auxPredicate is the selection the library aux ops apply.
func (fx *fixture) auxPredicate() relation.Predicate {
	if fx.tpch == "UQ3" {
		return relation.Cmp{Attr: "o_status", Op: relation.LE, Val: 1}
	}
	return relation.Cmp{Attr: "l_quantity", Op: relation.LE, Val: 5}
}

// appendTargets lists the relations appends go to, round-robin.
func (fx *fixture) appendTargets() []string {
	if fx.tpch == "UQ3" {
		return []string{"orders_v0"}
	}
	return []string{"lineitem_v0", "lineitem_v1", "lineitem_v2", "lineitem_v3", "lineitem_v4"}
}

// uniqueBase starts the values that make appended rows distinct from
// every generated row and from each other.
const uniqueBase = 1_000_000_000

// appendRows builds the rows of append number ctr (globally unique per
// run): the foreign key is drawn from the generated key range, so new
// rows join; one column carries uniqueBase+serial, so no two rows
// coincide.
func (fx *fixture) appendRows(sf float64, seed int64, ctr, n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		h := uint64(deriveSeed(seed, int64(ctr), int64(i)))
		serial := int64(uniqueBase + ctr*n + i)
		if fx.tpch == "UQ3" {
			nCust := int64(math.Round(float64(tpch.Rows.Customer) * sf))
			rows[i] = []int64{serial, int64(h % uint64(nCust)), int64(h >> 20 % 3), int64(h >> 32 % 100000)}
		} else {
			nOrd := int64(math.Round(float64(tpch.Rows.Orders) * sf))
			rows[i] = []int64{int64(h % uint64(nOrd)), serial, int64(h>>20%50) + 1, int64(h >> 32 % 100000)}
		}
	}
	return rows
}

// uniqueCol is the position of the uniqueBase+serial column in an
// append target's schema.
func (fx *fixture) uniqueCol() int {
	if fx.tpch == "UQ3" {
		return 0
	}
	return 1
}

// deriveSeed maps (workload seed, a, b) to a decorrelated 63-bit seed
// (SplitMix64 finalizer over a combined counter), so op i of round r
// draws the same stream in every run.
func deriveSeed(seed, a, b int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xD1B54A32D192ED03 + uint64(b)*0x8CB92BA72F3D8DD7 + 0x2545F4914F6CDD1D
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// env is one set-up instance of a fixture: what ops run against.
type env struct {
	fx   *fixture
	seed int64

	union *sampleunion.Union
	sess  *sampleunion.Session
	rels  map[string]*relation.Relation

	// Server side; nil for library fixtures in untraced runs.
	srv      *serve.Server
	ts       *httptest.Server
	client   *http.Client
	entry    *serve.Entry
	declJSON []byte
	dataDir  string

	baseRows map[string]int // append target -> generated row count
	acked    map[string]int // append target -> rows acked by this process
}

// serverConfig is the serving configuration of the HTTP workloads;
// dataDir == "" keeps the server memory-only.
func serverConfig(dataDir string) serve.Config {
	return serve.Config{
		DurableDir:      dataDir,
		FsyncPolicy:     wal.SyncInterval,
		FsyncInterval:   2 * time.Millisecond,
		CheckpointEvery: 4096,
	}
}

// setup builds an env and runs its first successful primary op, which
// is where set-up ends for a user: TPC-H generation, NewUnion and
// Prepare for the library, serve.New and the cold Registry.Get
// (warm-up estimation, index build, WAL open) for the server. served
// forces the server path, durable a data dir under dir.
func setup(fx *fixture, seed int64, served, durable bool, dir string) (*env, error) {
	e := &env{fx: fx, seed: seed, acked: make(map[string]int)}
	if !served {
		u, rels, err := fx.buildUnion(fx.sf, seed)
		if err != nil {
			return nil, err
		}
		sess, err := u.Prepare(fx.options(seed))
		if err != nil {
			return nil, err
		}
		e.union, e.rels, e.sess = u, rels, sess
	} else {
		if durable {
			d, err := os.MkdirTemp(dir, "data-")
			if err != nil {
				return nil, err
			}
			e.dataDir = d
		}
		if err := e.openServer(); err != nil {
			e.close()
			return nil, err
		}
	}
	e.baseRows = make(map[string]int)
	for _, name := range fx.appendTargets() {
		e.baseRows[name] = e.rels[name].Len()
	}
	w := newWorker(e)
	if res := w.exec(op{kind: opPrimary, seed: deriveSeed(seed, -1, 0)}); res.err != nil {
		e.close()
		return nil, fmt.Errorf("first primary op: %w", res.err)
	}
	return e, nil
}

// openServer starts a server over e.dataDir behind a loopback listener
// and resolves the fixture's entry (cold on a fresh server).
func (e *env) openServer() error {
	e.srv = serve.New(serverConfig(e.dataDir))
	return e.attachServer()
}

// attachServer puts e.srv behind a loopback listener and resolves the
// fixture's entry, preparing it if the server does not hold it yet.
func (e *env) attachServer() error {
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	decl := e.fx.decl(e.seed)
	raw, err := json.Marshal(decl)
	if err != nil {
		return err
	}
	e.declJSON = raw
	entry, err := e.srv.Registry().Get(decl)
	if err != nil {
		return err
	}
	e.entry, e.sess, e.union, e.rels = entry, entry.Sess, entry.Union, entry.Rels
	return nil
}

// closeServer stops the listener and flushes and closes the WALs.
func (e *env) closeServer() {
	if e.ts != nil {
		e.client.CloseIdleConnections()
		e.ts.Close()
		e.ts = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
}

// close releases the server and removes the data dir.
func (e *env) close() {
	e.closeServer()
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

type opKind int

const (
	opPrimary opKind = iota
	opAux
)

// op is one scheduled operation. idx is its position in the round,
// serial a run-wide counter that keys append rows and idempotency.
type op struct {
	kind   opKind
	seed   int64
	serial int
}

// opResult is what one op produced.
type opResult struct {
	tuples int
	digest uint64 // over the delivered tuples (or appended rows)
	status int    // HTTP status, 0 for library ops
	err    error
	out    []relation.Tuple // only when the worker keeps outputs
}

// worker is one closed-loop client with its reusable buffers.
type worker struct {
	e    *env
	keep bool // retain drawn tuples for the output checks
	body bytes.Buffer
	resp bytes.Buffer
	// respBytes is the size of the last HTTP response body.
	respBytes int
}

func newWorker(e *env) *worker { return &worker{e: e} }

// sampleResponse is the part of /sample's body the client reads.
type sampleResponse struct {
	Tuples [][]int64 `json:"tuples"`
}

// appendResponse is the part of the append ack the client reads.
type appendResponse struct {
	Appended int  `json:"appended"`
	Durable  bool `json:"durable"`
	Deduped  bool `json:"deduped"`
}

func (w *worker) exec(o op) opResult {
	fx := w.e.fx
	if o.kind == opPrimary {
		if fx.http {
			return w.postSample(fx.primaryN, o.seed)
		}
		out, _, err := w.e.sess.SampleBatchSeeded(fx.primaryN, o.seed)
		return w.libResult(out, fx.primaryN, err)
	}
	switch fx.aux {
	case auxWhere:
		out, _, err := w.e.sess.SampleWhereBatchSeeded(fx.auxN, fx.auxPredicate(), o.seed)
		return w.libResult(out, fx.auxN, err)
	case auxCount:
		// ApproxCount draws on the session's next auto stream, so which
		// op gets which stream depends on worker interleaving; the set of
		// streams consumed per round is fixed all the same.
		res, err := w.e.sess.ApproxCount(fx.auxPredicate(), fx.auxN)
		if err == nil && (res.N != fx.auxN || !(res.Value > 0)) {
			err = fmt.Errorf("ApproxCount: n=%d value=%g", res.N, res.Value)
		}
		return opResult{err: err}
	case auxLarge:
		return w.postSample(fx.auxN, o.seed)
	default:
		return w.postAppend(o)
	}
}

func (w *worker) libResult(out []relation.Tuple, n int, err error) opResult {
	if err != nil {
		return opResult{err: err}
	}
	if len(out) != n {
		return opResult{err: fmt.Errorf("%d tuples, want %d", len(out), n)}
	}
	res := opResult{tuples: n, digest: digestTuples(out)}
	if w.keep {
		res.out = out
	}
	return res
}

// post sends body to path and reads the whole response into w.resp.
func (w *worker) post(path, idemKey string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, w.e.ts.URL+path, bytes.NewReader(w.body.Bytes()))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := w.e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	w.resp.Reset()
	if _, err := io.Copy(&w.resp, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	w.respBytes = w.resp.Len()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(w.resp.Bytes()))
	}
	return resp.StatusCode, nil
}

// sampleBody writes the /sample request for (n, seed) into w.body.
func (w *worker) sampleBody(n int, seed int64) {
	w.body.Reset()
	w.body.WriteString(`{"union":`)
	w.body.Write(w.e.declJSON)
	w.body.WriteString(`,"n":`)
	w.body.WriteString(strconv.Itoa(n))
	w.body.WriteString(`,"seed":`)
	w.body.WriteString(strconv.FormatInt(seed, 10))
	w.body.WriteByte('}')
}

func (w *worker) postSample(n int, seed int64) opResult {
	w.sampleBody(n, seed)
	status, err := w.post("/sample", "")
	if err != nil {
		return opResult{status: status, err: err}
	}
	return w.sampleResult(n, status)
}

// sampleResult decodes the /sample response held in w.resp.
func (w *worker) sampleResult(n, status int) opResult {
	var payload sampleResponse
	if err := json.Unmarshal(w.resp.Bytes(), &payload); err != nil {
		return opResult{status: status, err: err}
	}
	if len(payload.Tuples) != n {
		return opResult{status: status, err: fmt.Errorf("%d tuples, want %d", len(payload.Tuples), n)}
	}
	res := opResult{tuples: n, status: status, digest: digestRows(payload.Tuples)}
	if w.keep {
		res.out = toTuples(payload.Tuples)
	}
	return res
}

// appendBody writes the append request for append number serial.
func (w *worker) appendBody(rows [][]int64) {
	w.body.Reset()
	w.body.WriteString(`{"union":`)
	w.body.Write(w.e.declJSON)
	w.body.WriteString(`,"rows":[`)
	for i, row := range rows {
		if i > 0 {
			w.body.WriteByte(',')
		}
		w.body.WriteByte('[')
		for j, v := range row {
			if j > 0 {
				w.body.WriteByte(',')
			}
			w.body.WriteString(strconv.FormatInt(v, 10))
		}
		w.body.WriteByte(']')
	}
	w.body.WriteString(`]}`)
}

// appendTarget is the relation append number serial goes to.
func (e *env) appendTarget(serial int) string {
	t := e.fx.appendTargets()
	return t[serial%len(t)]
}

func (w *worker) postAppend(o op) opResult {
	fx := w.e.fx
	rows := fx.appendRows(fx.sf, w.e.seed, o.serial, fx.auxN)
	w.appendBody(rows)
	name := w.e.appendTarget(o.serial)
	status, err := w.post("/relation/"+name+"/append", fmt.Sprintf("bench-%d-%d", w.e.seed, o.serial))
	if err != nil {
		return opResult{status: status, err: err}
	}
	var ack appendResponse
	if err := json.Unmarshal(w.resp.Bytes(), &ack); err != nil {
		return opResult{status: status, err: err}
	}
	if ack.Appended != len(rows) || ack.Deduped || ack.Durable != (w.e.dataDir != "") {
		return opResult{status: status, err: fmt.Errorf("append ack %+v for %d rows", ack, len(rows))}
	}
	return opResult{digest: digestRows(rows), status: status}
}

const digestSeed uint64 = 14695981039346656037

func digestStep(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h ^ h>>29
}

// digestRows is digestTuples over wire-format rows.
func digestRows(rows [][]int64) uint64 {
	h := digestSeed
	for _, row := range rows {
		for _, v := range row {
			h = digestStep(h, uint64(v))
		}
	}
	return h
}

// toTuples converts wire-format rows to engine tuples.
func toTuples(rows [][]int64) []relation.Tuple {
	ts := make([]relation.Tuple, len(rows))
	for i, row := range rows {
		t := make(relation.Tuple, len(row))
		for j, v := range row {
			t[j] = relation.Value(v)
		}
		ts[i] = t
	}
	return ts
}

func digestTuples(ts []relation.Tuple) uint64 {
	h := digestSeed
	for _, t := range ts {
		for _, v := range t {
			h = digestStep(h, uint64(v))
		}
	}
	return h
}
