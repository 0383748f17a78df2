package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"sampleunion/internal/relation"
	"sampleunion/internal/wal"
)

// RemoteSession is one durable session advertised by the primary's
// GET /repl/sessions: the canonical key plus the union declaration a
// follower rebuilds the same deterministic base state from.
type RemoteSession struct {
	Key  string          `json:"key"`
	Decl json.RawMessage `json:"decl"`
}

// FetchSessions lists the primary's durable sessions.
func FetchSessions(ctx context.Context, client *http.Client, primary string) ([]RemoteSession, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/repl/sessions", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: %s/repl/sessions: %s", primary, resp.Status)
	}
	var out []RemoteSession
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("repl: decoding session list: %w", err)
	}
	return out, nil
}

// AckRequest is the body of POST /repl/ack: a follower's progress
// report for one replicated relation.
type AckRequest struct {
	Follower   string `json:"follower"`
	Session    string `json:"session"`
	Relation   string `json:"relation"`
	Applied    uint64 `json:"applied"`
	Reconnects uint64 `json:"reconnects"`
	Resyncs    uint64 `json:"resyncs"`
}

// Sink is where a replicator puts what it receives for one relation.
// The implementation owns the ordering against the session's other
// writers — a Refresh re-reads every relation of the session, so it
// must never run while a sibling relation's record is mid-apply — which
// is why the replicator hands over whole steps instead of holding a
// lock itself.
type Sink interface {
	// ApplyRecord applies one WAL record through the relation's
	// ordinary mutation path, under wal.ApplyRecord's contract.
	ApplyRecord(seq uint64, payload []byte) (wal.ApplyOutcome, error)
	// Flush makes the records applied since the last Flush durable in
	// the follower's own WAL and folds them into the sampler. Only once
	// it returns nil do they count as applied; a failure abandons the
	// connection so nothing acks them.
	Flush() error
	// RestoreSnapshot replaces the relation's contents with a resync
	// snapshot, re-anchors the follower's own WAL chain on it (so the
	// chain stays contiguous across the follower's restarts) and
	// refreshes the sampler.
	RestoreSnapshot(sd relation.SnapshotData) error
}

// Target is one (session, relation) a follower replicates. The
// replicator only reads Rel (its version is the resume position); every
// write goes through Sink.
type Target struct {
	Session  string
	Relation string
	Rel      *relation.Relation
	Sink     Sink
}

// Options tunes a Follower.
type Options struct {
	Primary    string // base URL of the primary, e.g. http://127.0.0.1:8080
	Client     *http.Client
	FollowerID string
	// Heartbeat is the primary's advertised heartbeat period (default
	// 1s), the deployment's one statement about how fast replication
	// should notice and react to change. Everything else is derived from
	// it: ~4 silent periods is a dead peer and the connection is
	// abandoned, progress is acked at most every ackPeriods, and
	// reconnects back off from one period up to backoffMaxPeriods.
	Heartbeat time.Duration
	Seed      uint64 // reconnect jitter
	Logf      func(format string, args ...any)
}

const (
	ackPeriods        = 2
	backoffMaxPeriods = 20
)

// Follower replicates a set of targets from one primary, each on its
// own goroutine with independent reconnect backoff and resync state.
type Follower struct {
	opt Options
	// ctx ends every replicator and the requests they have in flight;
	// Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	reps map[string]*replicator
	wg   sync.WaitGroup
}

// NewFollower returns a follower with no targets; Add starts them.
func NewFollower(opt Options) *Follower {
	if opt.Client == nil {
		opt.Client = http.DefaultClient
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = time.Second
	}
	if opt.FollowerID == "" {
		opt.FollowerID = "follower"
	}
	f := &Follower{opt: opt, reps: make(map[string]*replicator)}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	return f
}

func (f *Follower) logf(format string, args ...any) {
	if f.opt.Logf != nil {
		f.opt.Logf(format, args...)
	}
}

// Add starts replicating a target; adding the same (session, relation)
// twice is a no-op.
func (f *Follower) Add(t Target) {
	key := streamKey(t.Session, t.Relation)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ctx.Err() != nil || f.reps[key] != nil {
		return
	}
	r := &replicator{f: f, t: t, rng: rand.New(rand.NewSource(int64(f.opt.Seed) ^ int64(len(f.reps)+1)))}
	f.reps[key] = r
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		r.run()
	}()
}

// Close stops every replicator and waits for them to exit.
func (f *Follower) Close() {
	f.mu.Lock() // no Add may start a replicator once Wait is under way
	f.cancel()
	f.mu.Unlock()
	f.wg.Wait()
}

// TargetSnapshot is one replicated relation's follower-side state.
type TargetSnapshot struct {
	Session     string  `json:"session"`
	Relation    string  `json:"relation"`
	Applied     uint64  `json:"applied"`
	Head        uint64  `json:"head"`
	LagRecords  uint64  `json:"lag_records"`
	LagSeconds  float64 `json:"lag_seconds"`
	Connected   bool    `json:"connected"`
	Reconnects  uint64  `json:"reconnects"`
	Resyncs     uint64  `json:"resyncs"`
	Duplicates  uint64  `json:"duplicates"`
	Divergences uint64  `json:"divergences"`
}

// FollowerSnapshot is the follower-side replication metrics block.
type FollowerSnapshot struct {
	Primary    string           `json:"primary"`
	FollowerID string           `json:"follower_id"`
	Targets    []TargetSnapshot `json:"targets"`
}

// Snapshot returns the follower's metrics, targets ordered by
// (session, relation) — the order of their stream keys.
func (f *Follower) Snapshot() FollowerSnapshot {
	fs := FollowerSnapshot{Primary: f.opt.Primary, FollowerID: f.opt.FollowerID}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, key := range slices.Sorted(maps.Keys(f.reps)) {
		fs.Targets = append(fs.Targets, f.reps[key].snapshot())
	}
	return fs
}

// errResync marks failures that position cannot fix: the follower's
// state diverged from what the stream can provide (seq gap, damaged
// frame, 409 from the primary) and only a snapshot restore recovers.
var errResync = errors.New("repl: resync required")

type replicator struct {
	f   *Follower
	t   Target
	rng *rand.Rand // owned by the run goroutine

	mu          sync.Mutex
	head        uint64 // primary head per last heartbeat/frame
	lastFrame   time.Time
	connected   bool
	reconnects  uint64
	resyncs     uint64
	duplicates  uint64
	divergences uint64
	lastAck     time.Time
}

func (r *replicator) snapshot() TargetSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := TargetSnapshot{
		Session:     r.t.Session,
		Relation:    r.t.Relation,
		Applied:     r.t.Rel.Version(),
		Head:        r.head,
		Connected:   r.connected,
		Reconnects:  r.reconnects,
		Resyncs:     r.resyncs,
		Duplicates:  r.duplicates,
		Divergences: r.divergences,
	}
	if ts.Head > ts.Applied {
		ts.LagRecords = ts.Head - ts.Applied
	}
	if !r.lastFrame.IsZero() {
		ts.LagSeconds = time.Since(r.lastFrame).Seconds()
	}
	return ts
}

// run is the replicator's life: connect, stream, and on any failure
// back off exponentially (capped, jittered) before trying again —
// resuming from the follower's own applied version, or from a fresh
// snapshot when the stream says position alone cannot recover.
func (r *replicator) run() {
	hb := r.f.opt.Heartbeat
	backoff := hb
	for r.f.ctx.Err() == nil {
		err := r.streamOnce()
		if err == nil {
			// Clean stream end (primary restart or drain): resume
			// promptly from the applied position.
			backoff = hb
		} else if errors.Is(err, errResync) {
			r.f.logf("repl: %s/%s: %v; resyncing from snapshot", r.t.Session, r.t.Relation, err)
			if rerr := r.resync(); rerr != nil {
				r.f.logf("repl: %s/%s: resync failed: %v", r.t.Session, r.t.Relation, rerr)
			} else {
				backoff = hb
				r.ack()
				continue
			}
		} else {
			r.f.logf("repl: %s/%s: stream: %v", r.t.Session, r.t.Relation, err)
		}
		// Jittered sleep in [backoff/2, backoff), then double up to the
		// cap — crash-looping primaries see a spread-out thundering
		// herd, not a synchronized one.
		d := backoff/2 + time.Duration(r.rng.Int63n(int64(backoff/2)+1))
		select {
		case <-time.After(d):
		case <-r.f.ctx.Done():
			return
		}
		if err != nil {
			backoff = min(2*backoff, backoffMaxPeriods*hb)
		}
	}
}

// watchedBody is a response body under the dead-peer watchdog: every
// read that yields bytes — frames, heartbeats, snapshot chunks — pushes
// the deadline out again.
type watchedBody struct {
	io.ReadCloser
	watchdog *time.Timer
	quiet    time.Duration
	cancel   context.CancelFunc // releases the request's context
}

func (b watchedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.watchdog.Reset(b.quiet)
	}
	return n, err
}

func (b watchedBody) Close() error {
	b.watchdog.Stop()
	b.cancel()
	return b.ReadCloser.Close()
}

// get opens one GET against the primary under the dead-peer watchdog:
// 4 heartbeat periods without the response header, and then without a
// byte of body, cancel the request — as does ctx, which every caller
// derives from the follower's. The caller closes the body.
func (r *replicator) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.f.opt.Primary+path+"?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	quiet := 4 * r.f.opt.Heartbeat
	watchdog := time.AfterFunc(quiet, cancel)
	resp, err := r.f.opt.Client.Do(req)
	if err != nil {
		watchdog.Stop()
		cancel()
		return nil, err
	}
	watchdog.Reset(quiet)
	resp.Body = watchedBody{resp.Body, watchdog, quiet, cancel}
	return resp, nil
}

// streamOnce opens one stream from the current applied version and
// applies frames until it ends. nil means a clean end (reconnect and
// resume); errResync means resync; other errors reconnect with
// backoff.
func (r *replicator) streamOnce() error {
	from := r.t.Rel.Version()
	resp, err := r.get(r.f.ctx, "/repl/stream", url.Values{
		"session":  {r.t.Session},
		"relation": {r.t.Relation},
		"from":     {strconv.FormatUint(from, 10)},
		"follower": {r.f.opt.FollowerID},
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("%w: primary refused position %d (truncated past it)", errResync, from)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("repl: stream: %s", resp.Status)
	}
	r.setConnected(true)
	defer r.setConnected(false)

	fr := wal.NewFrameReader(resp.Body)
	pending := 0
	stale := 0 // consecutive heartbeats ahead of us with no record between
	for {
		seq, payload, err := fr.Next()
		if err != nil {
			ferr := r.flush(&pending)
			switch {
			case ferr != nil:
				return ferr
			case err == io.EOF:
				return nil // clean end: resume by reconnect
			case errors.Is(err, io.ErrUnexpectedEOF):
				return fmt.Errorf("repl: stream tore mid-frame")
			case errors.Is(err, wal.ErrBadFrame):
				// The transport corrupted a frame (or we desynced);
				// position is untrustworthy, start over from a snapshot.
				return fmt.Errorf("%w: %v", errResync, err)
			case r.f.ctx.Err() != nil:
				return nil
			default:
				return err
			}
		}
		if IsHeartbeat(payload) {
			r.observeHead(seq)
			if err := r.flush(&pending); err != nil {
				return err
			}
			r.maybeAck()
			// The primary's cursor only moves forward: records it shipped
			// that never reached us (a transport that loses bytes at frame
			// granularity raises no error, and nothing follows the last
			// record to expose the gap) are not sent again on this stream.
			// A head that stays ahead for as long as a dead peer would be
			// silent means just that; resume from the applied position.
			if applied := r.t.Rel.Version(); seq <= applied {
				stale = 0
			} else if stale++; stale >= 4 {
				return fmt.Errorf("repl: head %d ahead of applied %d and no records arriving", seq, applied)
			}
			continue
		}
		stale = 0
		out, aerr := r.t.Sink.ApplyRecord(seq, payload)
		if aerr != nil {
			// A seq gap, or a record that contradicts local state:
			// either way the WAL stream cannot reconcile us.
			return fmt.Errorf("%w: %v", errResync, aerr)
		}
		if !out.Applied {
			r.mu.Lock()
			r.duplicates++
			r.mu.Unlock()
			continue
		}
		r.observeHead(seq)
		pending += out.Rows
		// Refresh at wire-idle boundaries (cheap batching under load)
		// but never let unrefreshed rows grow unboundedly.
		if fr.Buffered() == 0 || pending >= 65536 {
			if err := r.flush(&pending); err != nil {
				return err
			}
			r.maybeAck()
		}
	}
}

// flush hands the frames applied since the last flush to the sink.
func (r *replicator) flush(pending *int) error {
	if *pending == 0 {
		return nil
	}
	*pending = 0
	if err := r.t.Sink.Flush(); err != nil {
		return fmt.Errorf("repl: follower flush: %w", err)
	}
	return nil
}

// resync pulls a full snapshot from the primary and hands it to the
// sink, discarding local divergence.
func (r *replicator) resync() error {
	// The watchdog abandons a transfer that stops making progress long
	// before this outer deadline; retrying with backoff beats waiting.
	ctx, cancel := context.WithTimeout(r.f.ctx, 2*time.Minute)
	defer cancel()
	resp, err := r.get(ctx, "/repl/snapshot", url.Values{"session": {r.t.Session}, "relation": {r.t.Relation}})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: snapshot fetch: %w", err)
	}
	sd, err := wal.DecodeCheckpoint(raw, r.t.Rel.Arity())
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	if sd.Version < r.t.Rel.Version() {
		// The primary's state is behind ours: the follower holds
		// history the primary never had (divergence — e.g. it was
		// written to as a primary once). Refuse to silently roll back;
		// keep retrying in case the primary is merely catching up.
		r.mu.Lock()
		r.divergences++
		r.mu.Unlock()
		return fmt.Errorf("repl: snapshot version %d behind local %d: diverged", sd.Version, r.t.Rel.Version())
	}
	if err := r.t.Sink.RestoreSnapshot(sd); err != nil {
		return fmt.Errorf("repl: restoring snapshot: %w", err)
	}
	r.mu.Lock()
	r.resyncs++
	if sd.Version > r.head {
		r.head = sd.Version
	}
	r.mu.Unlock()
	return nil
}

func (r *replicator) setConnected(c bool) {
	r.mu.Lock()
	r.connected = c
	if c {
		r.reconnects++
	}
	r.mu.Unlock()
}

func (r *replicator) observeHead(seq uint64) {
	r.mu.Lock()
	if seq > r.head {
		r.head = seq
	}
	r.lastFrame = time.Now()
	r.mu.Unlock()
}

// maybeAck posts a rate-limited progress report; acks are advisory
// (metrics only) so failures are logged, not retried.
func (r *replicator) maybeAck() {
	r.mu.Lock()
	due := time.Since(r.lastAck) >= ackPeriods*r.f.opt.Heartbeat
	if due {
		r.lastAck = time.Now()
	}
	r.mu.Unlock()
	if due {
		r.ack()
	}
}

func (r *replicator) ack() {
	r.mu.Lock()
	body := AckRequest{
		Follower:   r.f.opt.FollowerID,
		Session:    r.t.Session,
		Relation:   r.t.Relation,
		Applied:    r.t.Rel.Version(),
		Reconnects: r.reconnects,
		Resyncs:    r.resyncs,
	}
	r.lastAck = time.Now()
	r.mu.Unlock()
	raw, err := json.Marshal(body)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.f.ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.f.opt.Primary+"/repl/ack", bytes.NewReader(raw))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.f.opt.Client.Do(req)
	if err != nil {
		r.f.logf("repl: %s/%s: ack: %v", r.t.Session, r.t.Relation, err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
}
