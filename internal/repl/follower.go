package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
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

// Target is one (session, relation) a follower replicates. Refresh is
// called after frames are applied (at wire-idle boundaries) to fold
// new rows into the sampler; Commit, when set, makes applied frames
// durable in the follower's own WAL before they are acked; Checkpoint,
// when set, anchors a snapshot restored by resync so the follower's
// WAL chain stays contiguous across its own restarts.
//
// Mu is the lock the sibling targets of one session share. A Refresh
// re-reads every relation of the session, so it must never run while a
// sibling's replicator is mid-append: the replicator holds Mu while it
// applies a record, across a flush (Commit + Refresh), and across a
// resync's restore + Checkpoint + Refresh — the same append → Refresh
// order the primary's wire append path keeps. The callbacks run with Mu
// held. A nil Mu gets a private lock (a target with no siblings).
type Target struct {
	Session    string
	Relation   string
	Rel        *relation.Relation
	Mu         sync.Locker
	Refresh    func() error
	Commit     func() error
	Checkpoint func() error
}

// Options tunes a Follower.
type Options struct {
	Primary    string // base URL of the primary, e.g. http://127.0.0.1:8080
	Client     *http.Client
	FollowerID string
	// Heartbeat is the primary's advertised heartbeat period; ~4 missed
	// heartbeats (no frame at all in 4 periods) is a dead peer and the
	// connection is abandoned (default 1s).
	Heartbeat time.Duration
	// AckEvery rate-limits progress reports to the primary (default
	// 500ms; acks also fire on resync and catch-up transitions).
	AckEvery time.Duration
	// BackoffMin/BackoffMax bound the capped exponential reconnect
	// backoff (defaults 100ms / 5s); jitter draws from Seed.
	BackoffMin time.Duration
	BackoffMax time.Duration
	Seed       uint64
	Logf       func(format string, args ...any)
}

// Follower replicates a set of targets from one primary, each on its
// own goroutine with independent reconnect backoff and resync state.
type Follower struct {
	opt Options

	mu     sync.Mutex
	reps   map[string]*replicator
	stop   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewFollower returns a follower with no targets; Add starts them.
func NewFollower(opt Options) *Follower {
	if opt.Client == nil {
		opt.Client = http.DefaultClient
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = time.Second
	}
	if opt.AckEvery <= 0 {
		opt.AckEvery = 500 * time.Millisecond
	}
	if opt.BackoffMin <= 0 {
		opt.BackoffMin = 100 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	if opt.FollowerID == "" {
		opt.FollowerID = "follower"
	}
	return &Follower{opt: opt, reps: make(map[string]*replicator), stop: make(chan struct{})}
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
	if f.closed || f.reps[key] != nil {
		return
	}
	if t.Mu == nil {
		t.Mu = new(sync.Mutex)
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
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.stop)
	}
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

// Snapshot returns the follower's metrics.
func (f *Follower) Snapshot() FollowerSnapshot {
	f.mu.Lock()
	reps := make([]*replicator, 0, len(f.reps))
	for _, r := range f.reps {
		reps = append(reps, r)
	}
	f.mu.Unlock()
	fs := FollowerSnapshot{Primary: f.opt.Primary, FollowerID: f.opt.FollowerID}
	for _, r := range reps {
		fs.Targets = append(fs.Targets, r.snapshot())
	}
	sort.Slice(fs.Targets, func(i, j int) bool {
		a, b := fs.Targets[i], fs.Targets[j]
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		return a.Relation < b.Relation
	})
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
	opt := r.f.opt
	backoff := opt.BackoffMin
	for {
		select {
		case <-r.f.stop:
			return
		default:
		}
		err := r.streamOnce()
		if err == nil {
			// Clean stream end (primary restart or drain): resume
			// promptly from the applied position.
			backoff = opt.BackoffMin
		} else if errors.Is(err, errResync) {
			r.f.logf("repl: %s/%s: %v; resyncing from snapshot", r.t.Session, r.t.Relation, err)
			if rerr := r.resync(); rerr != nil {
				r.f.logf("repl: %s/%s: resync failed: %v", r.t.Session, r.t.Relation, rerr)
			} else {
				backoff = opt.BackoffMin
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
		case <-r.f.stop:
			return
		}
		if err != nil {
			backoff *= 2
			if backoff > opt.BackoffMax {
				backoff = opt.BackoffMax
			}
		}
	}
}

// streamOnce opens one stream from the current applied version and
// applies frames until it ends. nil means a clean end (reconnect and
// resume); errResync means resync; other errors reconnect with
// backoff.
func (r *replicator) streamOnce() error {
	opt := r.f.opt
	from := r.t.Rel.Version()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // tie the request to follower shutdown
		select {
		case <-r.f.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	q := url.Values{
		"session":  {r.t.Session},
		"relation": {r.t.Relation},
		"from":     {strconv.FormatUint(from, 10)},
		"follower": {opt.FollowerID},
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, opt.Primary+"/repl/stream?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	// Dead-peer watchdog: the response header and then any frame
	// (heartbeats included) reset it; 4 silent heartbeat periods cancel
	// the request.
	watchdog := time.AfterFunc(4*opt.Heartbeat, cancel)
	defer watchdog.Stop()
	resp, err := opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	watchdog.Reset(4 * opt.Heartbeat)
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

	fr := NewFrameReader(resp.Body)
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
			case errors.Is(err, ErrBadFrame):
				// The transport corrupted a frame (or we desynced);
				// position is untrustworthy, start over from a snapshot.
				return fmt.Errorf("%w: %v", errResync, err)
			case ctx.Err() != nil && r.stopped():
				return nil
			default:
				return err
			}
		}
		watchdog.Reset(4 * opt.Heartbeat)
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
		r.t.Mu.Lock()
		out, aerr := wal.ApplyRecord(r.t.Rel, seq, payload)
		r.t.Mu.Unlock()
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

// flush commits applied frames to the follower's own WAL and folds
// them into the sampler. It must succeed before the rows count as
// applied; a failure abandons the connection so nothing acks them.
func (r *replicator) flush(pending *int) error {
	if *pending == 0 {
		return nil
	}
	*pending = 0
	r.t.Mu.Lock()
	defer r.t.Mu.Unlock()
	if r.t.Commit != nil {
		if err := r.t.Commit(); err != nil {
			return fmt.Errorf("repl: follower commit: %w", err)
		}
	}
	if r.t.Refresh != nil {
		if err := r.t.Refresh(); err != nil {
			return fmt.Errorf("repl: follower refresh: %w", err)
		}
	}
	return nil
}

// resync pulls a full snapshot from the primary and restores it,
// discarding local divergence, then re-anchors the follower's own WAL
// chain and sampler.
func (r *replicator) resync() error {
	opt := r.f.opt
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go func() { // tie the fetch to follower shutdown
		select {
		case <-r.f.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	q := url.Values{"session": {r.t.Session}, "relation": {r.t.Relation}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, opt.Primary+"/repl/snapshot?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	// Same dead-peer watchdog as the stream: a snapshot whose header or
	// body stops making progress for ~4 heartbeat periods is a dead
	// transfer — abandon it and retry with backoff rather than hold the
	// 2-minute outer deadline.
	watchdog := time.AfterFunc(4*opt.Heartbeat, cancel)
	defer watchdog.Stop()
	resp, err := opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	watchdog.Reset(4 * opt.Heartbeat)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot: %s", resp.Status)
	}
	var raw []byte
	chunk := make([]byte, 64<<10)
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			watchdog.Reset(4 * opt.Heartbeat)
			raw = append(raw, chunk[:n]...)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("repl: snapshot fetch: %w", rerr)
		}
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
	r.t.Mu.Lock()
	defer r.t.Mu.Unlock()
	if err := r.t.Rel.RestoreSnapshot(sd); err != nil {
		return err
	}
	if r.t.Checkpoint != nil {
		if err := r.t.Checkpoint(); err != nil {
			return fmt.Errorf("repl: checkpoint after resync: %w", err)
		}
	}
	if r.t.Refresh != nil {
		if err := r.t.Refresh(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.resyncs++
	if sd.Version > r.head {
		r.head = sd.Version
	}
	r.mu.Unlock()
	return nil
}

func (r *replicator) stopped() bool {
	select {
	case <-r.f.stop:
		return true
	default:
		return false
	}
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
	due := time.Since(r.lastAck) >= r.f.opt.AckEvery
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
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
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
