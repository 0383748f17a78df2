package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/repl"
	"sampleunion/internal/wal"
)

// Config tunes a Server.
type Config struct {
	// DataDir anchors CSV references of inline-spec declarations;
	// empty rejects them (built-in workloads still serve).
	DataDir string
	// SessionCap bounds the registry's warm sessions (LRU beyond it).
	// Default 8.
	SessionCap int
	// MaxInflight bounds concurrently executing draw requests; past it
	// the server sheds load with 429 + Retry-After instead of queueing
	// without bound. Default defaultMaxInflight.
	MaxInflight int

	// DurableDir enables durable ingest: per-relation WALs, snapshot
	// checkpoints, and the boot manifest live under it, and every
	// append is on disk before it is acked. Empty keeps the server
	// memory-only (wire-level mutations die with the process).
	DurableDir string
	// FsyncPolicy decides what an append ack means; see wal.SyncPolicy.
	// Default wal.SyncInterval (group commit).
	FsyncPolicy wal.SyncPolicy
	// FsyncInterval is the group-commit cadence under wal.SyncInterval.
	// Default 2ms.
	FsyncInterval time.Duration
	// CheckpointEvery checkpoints a relation after that many mutations
	// accumulate past its last checkpoint. Default 4096; < 0 disables
	// automatic checkpoints.
	CheckpointEvery int

	// FollowPrimary makes this server a read-only replication follower
	// of the primary at that base URL (e.g. "http://127.0.0.1:8080"):
	// it streams the primary's WAL frames, serves draws from the
	// replicated state, and answers writes with 307 to the primary.
	// Empty (the default) makes a normal standalone/primary server.
	FollowPrimary string
	// ReplHeartbeat is the replication heartbeat period: how often an
	// idle primary stream emits a liveness frame, and the unit of the
	// follower's dead-peer watchdog (~4 silent periods). Default 1s.
	ReplHeartbeat time.Duration
	// ReplClient, when set, is the HTTP client a follower dials the
	// primary with (fault-injection tests swap its transport). Nil uses
	// http.DefaultClient.
	ReplClient *http.Client
	// RequestTimeout bounds one draw request's execution: a draw still
	// running past it answers 503 while the work is abandoned to finish
	// in the background (its admission slot stays held until then, so
	// runaway queries still count against MaxInflight). 0 disables.
	RequestTimeout time.Duration
}

// Server is the HTTP serving layer: a session registry behind a JSON
// request surface, with admission control and per-endpoint metrics.
// Create with New, mount via Handler.
type Server struct {
	cfg      Config // with defaults filled in
	reg      *Registry
	metrics  *metricsSet
	sem      chan struct{}
	mux      *http.ServeMux
	started  time.Time
	draining atomic.Bool

	// hub serves WAL frames to followers (primary with durability
	// only); follower is the replication client (follower mode only).
	hub      *repl.Hub
	follower *repl.Follower

	stopOnce sync.Once
	stopCh   chan struct{}
}

// defaultMaxInflight is the admission cap of a server configured with
// none, whatever the core count.
const defaultMaxInflight = 16

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.SessionCap <= 0 {
		cfg.SessionCap = 8
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = defaultMaxInflight
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 4096
	}
	if cfg.ReplHeartbeat <= 0 {
		cfg.ReplHeartbeat = time.Second
	}
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(cfg.DataDir, cfg.SessionCap),
		metrics: newMetricsSet(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		mux:     http.NewServeMux(),
		started: time.Now(),
		stopCh:  make(chan struct{}),
	}
	if cfg.DurableDir != "" {
		s.reg.durable = newDurableStore(cfg.DurableDir, wal.RelationLogOptions{
			Options:         wal.Options{Policy: cfg.FsyncPolicy, Interval: cfg.FsyncInterval},
			CheckpointEvery: cfg.CheckpointEvery,
		})
	}
	if s.reg.durable != nil && cfg.FollowPrimary == "" {
		s.hub = repl.NewHub(repl.HubConfig{
			Resolve:   s.resolveSource,
			Heartbeat: cfg.ReplHeartbeat,
		})
		s.reg.hub = s.hub
	}
	s.mux.HandleFunc("POST /sample", s.handle("sample", true, s.handleSample))
	s.mux.HandleFunc("POST /sample/where", s.handle("sample_where", true, s.handleSampleWhere))
	s.mux.HandleFunc("POST /approx/count", s.handle("approx_count", true, s.handleApproxCount))
	s.mux.HandleFunc("POST /approx/sum", s.handle("approx_sum", true, s.handleApproxSum))
	s.mux.HandleFunc("POST /approx/avg", s.handle("approx_avg", true, s.handleApproxAvg))
	s.mux.HandleFunc("POST /approx/group", s.handle("approx_group", true, s.handleApproxGroup))
	s.mux.HandleFunc("POST /estimate", s.handle("estimate", false, s.handleEstimate))
	s.mux.HandleFunc("POST /refresh", s.handle("refresh", false, s.handleRefresh))
	s.mux.HandleFunc("POST /relation/{name}/append", s.handle("append", false, s.handleAppend))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The replication surface is raw byte streams and side-channel
	// bookkeeping, not JSON draws: it mounts outside handle() so
	// admission control and the response envelope never touch it.
	if s.hub != nil {
		s.mux.HandleFunc("GET /repl/sessions", s.handleReplSessions)
		s.mux.HandleFunc("GET /repl/stream", s.hub.ServeStream)
		s.mux.HandleFunc("GET /repl/snapshot", s.hub.ServeSnapshot)
		s.mux.HandleFunc("POST /repl/ack", s.handleReplAck)
	} else {
		s.mux.HandleFunc("/repl/", s.replUnavailable)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the session registry (tests and metrics).
func (s *Server) Registry() *Registry { return s.reg }

// Inflight reports currently executing draw requests.
func (s *Server) Inflight() int { return len(s.sem) }

// Close releases the server's durable state, flushing and closing
// every open WAL, and stops replication (follower replicators, open
// primary streams); a memory-only standalone server's Close is a
// no-op. Call it after the HTTP listener has drained.
func (s *Server) Close() {
	s.stop()
	if s.follower != nil {
		s.follower.Close()
	}
	if s.reg.durable != nil {
		s.reg.durable.closeAll()
	}
}

func (s *Server) stop() {
	s.stopOnce.Do(func() {
		close(s.stopCh)
		if s.hub != nil {
			s.hub.Close()
		}
	})
}

// SetDraining flips the server into drain mode: /healthz answers 503
// "draining" and shed requests get 503 + Connection: close instead of
// 429 + Retry-After, so load balancers fail over instead of retrying a
// process that is about to exit. Replication streams end too —
// long-lived responses would otherwise hold http.Server.Shutdown open
// forever. Call it before Shutdown.
func (s *Server) SetDraining() {
	s.draining.Store(true)
	s.stop()
}

// Draining reports whether SetDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// RestoreSessions re-prepares every declaration in the durable boot
// manifest, so a restarted daemon answers its working set warm: each
// session's relations come back from checkpoint + WAL replay and its
// warm-up runs over the recovered contents before any request arrives.
// It reports how many sessions were restored; a no-durability server
// restores zero. An entry whose stored key is not what its declaration
// hashes to is refused, and restoring stops there. Call it once, before
// serving.
func (s *Server) RestoreSessions() (int, error) {
	d := s.reg.durable
	if d == nil {
		return 0, nil
	}
	ents, err := d.loadManifest()
	if err != nil {
		return 0, err
	}
	n := 0
	for i, me := range ents {
		// The key names the entry's directory: a declaration that no longer
		// hashes to it (an option this binary does not know, say) would be
		// prepared over an empty one and its WAL left behind unread.
		if key, err := me.Decl.Key(); err != nil {
			return n, fmt.Errorf("serve: restoring session %s: %w", me.Key, err)
		} else if key != me.Key {
			return n, fmt.Errorf("serve: manifest entry %d is stored under key %s but its declaration hashes to %s: refusing to restore it over another directory",
				i, me.Key, key)
		}
		if _, err := s.reg.Get(me.Decl); err != nil {
			return n, fmt.Errorf("serve: restoring session %s: %w", me.Key, err)
		}
		n++
		d.restoredEntries.Add(1)
	}
	return n, nil
}

// badRequest marks client errors (malformed JSON, unknown workloads,
// bad predicates) so the envelope answers 400 instead of 500.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }

func badf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// redirectError makes the envelope answer 307 + Location: a follower
// pointing a write at the primary. 307 preserves the method and body,
// so a client that follows it replays the append verbatim (including
// its Idempotency-Key).
type redirectError struct{ location string }

func (e redirectError) Error() string {
	return fmt.Sprintf("serve: read-only follower; write to the primary at %s", e.location)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// handle wraps an endpoint: admission control and a request deadline
// (draw endpoints only), latency observation, and the JSON
// response/error envelope.
func (s *Server) handle(name string, admit bool, fn func(*http.Request) (any, error)) http.HandlerFunc {
	m := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if admit {
			select {
			case s.sem <- struct{}{}:
			default:
				s.metrics.rejected.Add(1)
				if s.draining.Load() {
					// Retry-After against a draining process invites
					// the client to re-hit a server that is about to
					// exit; tell it to go elsewhere instead.
					w.Header().Set("Connection", "close")
					writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "serve: draining, connect elsewhere"})
					return
				}
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, apiError{Error: "serve: overloaded, retry later"})
				return
			}
		}
		release := func() {
			if admit {
				<-s.sem
			}
		}
		start := time.Now()
		if !admit || s.cfg.RequestTimeout <= 0 {
			payload, err := fn(r)
			release()
			m.observe(time.Since(start), err != nil)
			s.writeResult(w, payload, err)
			return
		}
		// Deadline watchdog: the draw runs in its own goroutine so a
		// runaway query cannot pin this response past the timeout. The
		// abandoned work keeps its admission slot until it actually
		// finishes — MaxInflight bounds real concurrency, not just
		// responsive concurrency.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		type result struct {
			payload any
			err     error
		}
		done := make(chan result, 1)
		go func() {
			payload, err := fn(r.WithContext(ctx))
			done <- result{payload, err}
		}()
		select {
		case res := <-done:
			release()
			m.observe(time.Since(start), res.err != nil)
			s.writeResult(w, res.payload, res.err)
		case <-ctx.Done():
			go func() {
				<-done
				release()
			}()
			s.metrics.rejected.Add(1)
			m.observe(time.Since(start), true)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				apiError{Error: fmt.Sprintf("serve: request exceeded the %v deadline", s.cfg.RequestTimeout)})
		}
	}
}

// writeResult renders an endpoint outcome through the error envelope.
func (s *Server) writeResult(w http.ResponseWriter, payload any, err error) {
	if err != nil {
		code := http.StatusInternalServerError
		var bad badRequest
		var redir redirectError
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			code = http.StatusRequestEntityTooLarge
		case errors.As(err, &redir):
			code = http.StatusTemporaryRedirect
			w.Header().Set("Location", redir.location)
		case errors.As(err, &bad):
			code = http.StatusBadRequest
		}
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, payload)
}

// encodePool recycles response-encoding buffers across requests: a
// draw endpoint answers from a pooled buffer (encode, write, return)
// instead of allocating an encoder and growing a fresh buffer per
// response, and writing the encoded bytes in one call sets
// Content-Length for the client.
var encodePool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// pooledBufferCap bounds the buffers the pool retains: a giant
// response (a 10^6-tuple draw) should not pin its buffer forever.
const pooledBufferCap = 1 << 20

// writeJSON sends payload with the status code from a pooled buffer: a
// *bytes.Buffer is a reply encodeSample already finished and goes out as
// it stands; anything else is encoded through encoding/json first.
func writeJSON(w http.ResponseWriter, code int, payload any) {
	buf, encoded := payload.(*bytes.Buffer)
	if !encoded {
		buf = encodePool.Get().(*bytes.Buffer)
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(payload); err != nil {
			// Pre-header encoding failure: answer a clean 500 instead of a
			// truncated body.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "{\"error\":%q}\n", encodeFailed(err).Error())
			encodePool.Put(buf)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	// Write errors past the header are undeliverable; the client sees
	// the truncated body.
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= pooledBufferCap {
		encodePool.Put(buf)
	}
}

// maxBodyBytes bounds every request body the server reads: the largest
// append batch the WAL can frame. Past it a request answers 413 instead
// of making the daemon buffer whatever a client chooses to send.
const maxBodyBytes = wal.MaxRecordLen

// maxDrawN bounds the tuples one request may ask the engine to draw. The
// engine sizes its buffers for the whole batch before the first draw, so
// an unchecked n from the wire is an allocation of the client's choosing
// — a runtime panic or an out-of-memory kill, not an error response.
const maxDrawN = 1 << 20

// checkDrawN refuses a draw count outside [least, maxDrawN] as a client
// error.
func checkDrawN(n, least int) error {
	if n < least || n > maxDrawN {
		return badf("serve: n must be between %d and %d, got %d", least, maxDrawN, n)
	}
	return nil
}

// maxWorkers bounds /sample's workers: SampleParallel starts one goroutine
// per worker, and an admitted request holds one MaxInflight slot however
// many it starts.
const maxWorkers = 64

// decode unmarshals a request body of at most maxBodyBytes into dst,
// strictly. The limit reader is given no ResponseWriter because a draw
// abandoned at its deadline may still be reading after the response
// went out; the server closes a connection whose body was left unread
// either way.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("serve: request body over %d bytes: %w", maxBodyBytes, err)
		}
		return badf("serve: bad request body: %v", err)
	}
	return nil
}

// sampleRequest is the body of /sample and /sample/where.
type sampleRequest struct {
	Union UnionDecl `json:"union"`
	// N is the number of tuples to draw.
	N int `json:"n"`
	// Seed pins an explicit reproducible stream; absent draws the
	// session's next auto stream.
	Seed *int64 `json:"seed,omitempty"`
	// Workers fans a plain /sample draw over that many goroutines.
	Workers int `json:"workers,omitempty"`
	// Where (only /sample/where) filters the sampled subset.
	Where *PredDecl `json:"where,omitempty"`
}

// encodeSample encodes a draw's reply into a pooled buffer for writeJSON
// to send. A view's reply is finished here, before its run goes back.
func encodeSample(e *Entry, tuples []sampleunion.Tuple, unionSize float64, start time.Time) (*bytes.Buffer, error) {
	buf := encodePool.Get().(*bytes.Buffer)
	buf.Reset()
	b, err := appendSample(buf.AvailableBuffer(), e.schemaJSON, tuples, unionSize, float64(time.Since(start).Nanoseconds())/1e3)
	if err != nil {
		encodePool.Put(buf)
		return nil, encodeFailed(err)
	}
	buf.Write(b)
	return buf, nil
}

// appendSample appends the /sample reply encoding/json writes for
// {"schema", "tuples", "union_size", "elapsed_us"} and a newline, schema
// given already marshalled: every tuple an array of its int64 values, an
// empty draw "tuples":[].
func appendSample(b, schema []byte, tuples []sampleunion.Tuple, unionSize, elapsedUs float64) ([]byte, error) {
	b = append(append(b, `{"schema":`...), schema...)
	b = append(b, `,"tuples":[`...)
	for i, t := range tuples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range t {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b, err := appendFloat(append(b, `],"union_size":`...), unionSize)
	if err == nil {
		b, err = appendFloat(append(b, `,"elapsed_us":`...), elapsedUs)
	}
	return append(b, '}', '\n'), err
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// form that reads back as f, in exponent form below 1e-6 and from 1e21 up
// with a one-digit negative exponent unpadded, and NaN or ±Inf refused
// with the error encoding/json returns for them.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, nil
}

// encodeFailed is the error of a reply that could not be encoded: a 500
// through the envelope rather than a truncated body.
func encodeFailed(err error) error {
	return fmt.Errorf("serve: response encoding failed: %w", err)
}

func (s *Server) entryFor(decl UnionDecl) (*Entry, error) {
	e, err := s.reg.Get(decl)
	if err != nil {
		// Everything that can fail here — unknown workload, bad spec,
		// bad options — is a property of the request.
		return nil, badRequest{err}
	}
	return e, nil
}

func (s *Server) handleSample(r *http.Request) (any, error) {
	var req sampleRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.Where != nil {
		return nil, badf("serve: /sample takes no predicate; use /sample/where")
	}
	if err := checkDrawN(req.N, 0); err != nil {
		return nil, err
	}
	if req.Workers > maxWorkers {
		return nil, badf("serve: workers must be at most %d, got %d", maxWorkers, req.Workers)
	}
	e, err := s.entryFor(req.Union)
	if err != nil {
		return nil, err
	}
	// A request for n tuples is one call into the engine, not n
	// per-draw calls; SampleParallel shards into batches per worker. A
	// single call's reply is encoded from the run's own buffers, under the
	// |U| the run drew with.
	start := time.Now()
	if req.Seed == nil && req.Workers > 1 {
		tuples, err := e.Sess.SampleParallel(req.N, req.Workers)
		if err != nil {
			return nil, err
		}
		return encodeSample(e, tuples, e.Sess.UnionSize(), start)
	}
	var reply *bytes.Buffer
	use := func(tuples []sampleunion.Tuple, unionSize float64) (err error) {
		reply, err = encodeSample(e, tuples, unionSize, start)
		return err
	}
	if req.Seed != nil {
		err = e.Sess.SampleViewSeeded(req.N, *req.Seed, use)
	} else {
		err = e.Sess.SampleView(req.N, use)
	}
	return reply, err
}

func (s *Server) handleSampleWhere(r *http.Request) (any, error) {
	var req sampleRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if err := checkDrawN(req.N, 0); err != nil {
		return nil, err
	}
	pred, err := wherePredicate(req.Where)
	if err != nil {
		return nil, err
	}
	e, err := s.entryFor(req.Union)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var tuples []sampleunion.Tuple
	if req.Seed != nil {
		tuples, _, err = e.Sess.SampleWhereSeeded(req.N, pred, *req.Seed)
	} else {
		tuples, _, err = e.Sess.SampleWhere(req.N, pred)
	}
	if err != nil {
		return nil, err
	}
	return encodeSample(e, tuples, e.Sess.UnionSize(), start)
}

// approxRequest is the body of the /approx/* endpoints. Attr is
// required for sum, avg, and group; Where applies to count, sum, avg.
type approxRequest struct {
	Union UnionDecl `json:"union"`
	N     int       `json:"n"`
	Attr  string    `json:"attr,omitempty"`
	Where *PredDecl `json:"where,omitempty"`
}

// approxResponse is one aggregate estimate with its 95% interval.
type approxResponse struct {
	Value     float64 `json:"value"`
	HalfWidth float64 `json:"half_width"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	N         int     `json:"n"`
}

func toApproxResponse(res sampleunion.AggResult) approxResponse {
	lo, hi := res.Interval()
	return approxResponse{Value: res.Value, HalfWidth: res.HalfWidth, Lo: lo, Hi: hi, N: res.N}
}

// approxCall factors the shared decode/validate/dispatch of the three
// scalar aggregate endpoints.
func (s *Server) approxCall(r *http.Request, needAttr bool,
	agg func(*Entry, relation.Predicate, approxRequest) (sampleunion.AggResult, error)) (any, error) {
	var req approxRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if err := checkDrawN(req.N, 1); err != nil {
		return nil, err
	}
	if needAttr && req.Attr == "" {
		return nil, badf("serve: this aggregate needs an attr")
	}
	pred, err := wherePredicate(req.Where)
	if err != nil {
		return nil, err
	}
	e, err := s.entryFor(req.Union)
	if err != nil {
		return nil, err
	}
	res, err := agg(e, pred, req)
	if err != nil {
		return nil, err
	}
	return toApproxResponse(res), nil
}

func (s *Server) handleApproxCount(r *http.Request) (any, error) {
	return s.approxCall(r, false, func(e *Entry, pred relation.Predicate, req approxRequest) (sampleunion.AggResult, error) {
		return e.Sess.ApproxCount(pred, req.N)
	})
}

func (s *Server) handleApproxSum(r *http.Request) (any, error) {
	return s.approxCall(r, true, func(e *Entry, pred relation.Predicate, req approxRequest) (sampleunion.AggResult, error) {
		return e.Sess.ApproxSum(req.Attr, pred, req.N)
	})
}

func (s *Server) handleApproxAvg(r *http.Request) (any, error) {
	return s.approxCall(r, true, func(e *Entry, pred relation.Predicate, req approxRequest) (sampleunion.AggResult, error) {
		return e.Sess.ApproxAvg(req.Attr, pred, req.N)
	})
}

// groupResponse is /approx/group's body.
type groupResponse struct {
	Groups []groupEstimate `json:"groups"`
}

type groupEstimate struct {
	Key       int64   `json:"key"`
	Count     float64 `json:"count"`
	HalfWidth float64 `json:"half_width"`
}

func (s *Server) handleApproxGroup(r *http.Request) (any, error) {
	var req approxRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if err := checkDrawN(req.N, 1); err != nil {
		return nil, err
	}
	if req.Attr == "" {
		return nil, badf("serve: group count needs an attr")
	}
	if req.Where != nil {
		return nil, badf("serve: group count takes no predicate")
	}
	e, err := s.entryFor(req.Union)
	if err != nil {
		return nil, err
	}
	groups, err := e.Sess.ApproxGroupCount(req.Attr, req.N)
	if err != nil {
		return nil, err
	}
	out := groupResponse{Groups: make([]groupEstimate, len(groups))}
	for i, g := range groups {
		out.Groups[i] = groupEstimate{
			Key:       int64(g.Key),
			Count:     g.Count.Value,
			HalfWidth: g.Count.HalfWidth,
		}
	}
	return out, nil
}

// unionRequest is the body of /estimate and /refresh.
type unionRequest struct {
	Union UnionDecl `json:"union"`
}

// estimateResponse reports the session's cached warm-up parameters.
type estimateResponse struct {
	UnionSize  float64   `json:"union_size"`
	JoinSizes  []float64 `json:"join_sizes"`
	CoverSizes []float64 `json:"cover_sizes"`
	WarmupMs   float64   `json:"warmup_ms"`
	Stale      bool      `json:"stale"`
}

func (s *Server) handleEstimate(r *http.Request) (any, error) {
	var req unionRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	e, err := s.entryFor(req.Union)
	if err != nil {
		return nil, err
	}
	est := e.Sess.Estimate()
	return estimateResponse{
		UnionSize:  est.UnionSize,
		JoinSizes:  est.JoinSizes,
		CoverSizes: est.CoverSizes,
		WarmupMs:   float64(e.Sess.WarmupTime().Nanoseconds()) / 1e6,
		Stale:      e.Sess.Stale(),
	}, nil
}

// refreshResponse reports a refresh's outcome.
type refreshResponse struct {
	Refreshed bool    `json:"refreshed"`
	UnionSize float64 `json:"union_size"`
}

func (s *Server) handleRefresh(r *http.Request) (any, error) {
	var req unionRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	e, err := s.entryFor(req.Union)
	if err != nil {
		return nil, err
	}
	stale, err := e.refresh()
	if err != nil {
		return nil, err
	}
	return refreshResponse{Refreshed: stale, UnionSize: e.Sess.UnionSize()}, nil
}

// appendRequest is the body of /relation/{name}/append: rows to ingest
// into the named base relation of the declared union.
type appendRequest struct {
	Union UnionDecl `json:"union"`
	Rows  [][]int64 `json:"rows"`
}

// appendResponse reports the ingest outcome. The session is refreshed
// before the response, so later draws observe the new rows. Appended
// rows live as long as the registry entry: the registry is a cache
// over declarations, so an evicted key re-prepares from the declared
// data without wire-level appends (eviction prefers unmutated
// entries; size -sessions to the mutated working set).
//
// When the append lands but the follow-up refresh fails, the response
// is still 200 — the rows ARE in the relation (retrying would
// duplicate them) — with refreshed == false and the refresh error
// attached; the session keeps serving under pre-append parameters
// until a later /refresh or mutation succeeds.
type appendResponse struct {
	Appended     int     `json:"appended"`
	Refreshed    bool    `json:"refreshed"`
	RefreshError string  `json:"refresh_error,omitempty"`
	UnionSize    float64 `json:"union_size"`
	// Durable reports that the rows were committed to the WAL (per the
	// configured fsync policy) before this ack.
	Durable bool `json:"durable"`
	// Deduped reports that this batch's Idempotency-Key matched an
	// already-committed batch: nothing was appended now, Appended
	// echoes the original batch's row count, and the original commit
	// still stands.
	Deduped bool `json:"deduped,omitempty"`
}

// maxIdemHeaderLen bounds the Idempotency-Key header (anything real is
// a UUID or similar; kilobytes of key is a client bug).
const maxIdemHeaderLen = 4096

func (s *Server) handleAppend(r *http.Request) (any, error) {
	if s.cfg.FollowPrimary != "" {
		return nil, redirectError{location: s.cfg.FollowPrimary + r.URL.Path}
	}
	name := r.PathValue("name")
	idemKey := r.Header.Get("Idempotency-Key")
	if len(idemKey) > maxIdemHeaderLen {
		return nil, badf("serve: Idempotency-Key longer than %d bytes", maxIdemHeaderLen)
	}
	var req appendRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	e, err := s.entryFor(req.Union)
	if err != nil {
		return nil, err
	}
	rel, ok := e.Rels[name]
	if !ok {
		return nil, badf("serve: union has no relation %q", name)
	}
	arity := rel.Schema().Len()
	rows := make([]relation.Tuple, len(req.Rows))
	for i, vals := range req.Rows {
		if len(vals) != arity {
			return nil, badf("serve: row %d has %d values, relation %q wants %d", i, len(vals), name, arity)
		}
		t := make(relation.Tuple, arity)
		for j, v := range vals {
			t[j] = relation.Value(v)
		}
		rows[i] = t
	}
	return e.append(name, rows, idemKey)
}

// healthzResponse is the liveness probe body.
type healthzResponse struct {
	Status      string  `json:"status"`
	Sessions    int     `json:"sessions"`
	Inflight    int     `json:"inflight"`
	MaxInflight int     `json:"max_inflight"`
	UptimeSec   float64 `json:"uptime_sec"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Load balancers watching this probe must stop routing here
		// before the listener actually closes.
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthzResponse{
		Status:      status,
		Sessions:    s.reg.Stats().Sessions,
		Inflight:    s.Inflight(),
		MaxInflight: cap(s.sem),
		UptimeSec:   time.Since(s.started).Seconds(),
	})
}

// metricsResponse is the /metrics scrape body.
type metricsResponse struct {
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	Registry  RegistryStats               `json:"registry"`
	// Storage reports per-relation storage gauges (rows, live rows,
	// bytes per column vector, dictionary sizes) for every warm entry,
	// keyed by registry key — the scrape point for footprint
	// regressions in serving.
	Storage  map[string]EntryStorage `json:"storage"`
	Rejected int64                   `json:"rejected"`
	Inflight int                     `json:"inflight"`
	// Refresh reports each session's last effective Refresh (keyed by
	// registry key): its work list — dirty joins, segments patched,
	// nodes and joins rebuilt, walks run and probed again — and its
	// duration. Absent until a session has refreshed.
	Refresh map[string]sampleunion.RefreshStats `json:"refresh,omitempty"`
	// Durability reports WAL/checkpoint gauges; absent on a
	// memory-only server.
	Durability *DurabilitySnapshot `json:"durability,omitempty"`
	// Replication reports the node's replication state — primary-side
	// per-follower lag or follower-side per-relation progress; absent
	// when the server neither serves nor follows streams.
	Replication *ReplicationSnapshot `json:"replication,omitempty"`
}

// ReplicationSnapshot is the /metrics replication block.
type ReplicationSnapshot struct {
	// Role is "primary" (durable server able to feed followers) or
	// "follower".
	Role     string                 `json:"role"`
	Primary  *repl.PrimarySnapshot  `json:"primary,omitempty"`
	Follower *repl.FollowerSnapshot `json:"follower,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{
		Endpoints: s.metrics.snapshot(),
		Registry:  s.reg.Stats(),
		Storage:   s.reg.StorageSnapshot(),
		Rejected:  s.metrics.rejected.Load(),
		Inflight:  s.Inflight(),
		Refresh:   s.reg.RefreshSnapshot(),
	}
	if s.reg.durable != nil {
		snap := s.reg.durable.snapshot()
		resp.Durability = &snap
	}
	switch {
	case s.hub != nil:
		hs := s.hub.Snapshot()
		resp.Replication = &ReplicationSnapshot{Role: "primary", Primary: &hs}
	case s.follower != nil:
		fs := s.follower.Snapshot()
		resp.Replication = &ReplicationSnapshot{Role: "follower", Follower: &fs}
	}
	writeJSON(w, http.StatusOK, resp)
}

// wherePredicate compiles an optional predicate declaration (absent
// means true), classifying failures as client errors.
func wherePredicate(p *PredDecl) (relation.Predicate, error) {
	if p == nil {
		return relation.True{}, nil
	}
	pred, err := p.toPredicate()
	if err != nil {
		return nil, badRequest{err}
	}
	return pred, nil
}
