package repl

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"sampleunion/internal/relation"
	"sampleunion/internal/wal"
)

// Source is what the hub streams for one (session, relation): the live
// relation (for head versions and snapshots) and its durability log
// (for the frames themselves).
type Source struct {
	Rel *relation.Relation
	Log *wal.RelationLog
}

// HubConfig tunes the primary side of replication.
type HubConfig struct {
	// Resolve maps a (session key, relation name) to its Source; an
	// error turns into a 404 on the stream/snapshot endpoints.
	Resolve func(session, rel string) (Source, error)
	// Heartbeat is the idle-stream heartbeat period (default 1s).
	// Followers treat ~4 missed heartbeats as a dead peer, and a single
	// write to a follower may block for as long before the stream ends.
	Heartbeat time.Duration
	Logf      func(format string, args ...any)
}

const (
	// streamQueueLen bounds the per-stream send queue in batches. A
	// follower too slow to drain it is disconnected rather than allowed
	// to pin memory; it re-enters through reconnect or resync.
	streamQueueLen = 64
	// streamBatchBytes bounds the WAL bytes gathered per send.
	streamBatchBytes = 256 << 10
	// maxAckEntries caps the ack table: followers mint a fresh ID per
	// boot, so without a cap every follower restart would leave an entry
	// behind forever. Past it the least recently acked entry goes.
	maxAckEntries = 1024
)

// Hub is the primary's replication fan-out: it serves the long-lived
// frame streams, snapshot fetches for resync, and follower acks, and
// isolates each follower behind its own cursor and bounded queue so a
// slow or dead one never backpressures ingest or its siblings.
type Hub struct {
	cfg HubConfig

	mu sync.Mutex
	// wakers holds, per stream key, the channel idle streams of that
	// relation block on: Wake closes and drops it, releasing every
	// waiter at once, and the next waiter installs a fresh one.
	wakers  map[string]chan struct{}
	acks    map[string]*ackState
	streams int
	closed  bool
	stop    chan struct{}

	connects, disconnects, overflows, snapshots uint64
}

// ackState is one follower's last report on one relation.
type ackState struct {
	AckRequest
	last time.Time
}

// NewHub returns a hub ready to serve streams.
func NewHub(cfg HubConfig) *Hub {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	return &Hub{
		cfg:    cfg,
		wakers: make(map[string]chan struct{}),
		acks:   make(map[string]*ackState),
		stop:   make(chan struct{}),
	}
}

func (h *Hub) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// Close wakes and ends every active stream; followers see a clean end
// and reconnect elsewhere (or to the restarted primary).
func (h *Hub) Close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.stop)
	}
	h.mu.Unlock()
}

func streamKey(session, rel string) string { return session + "\x00" + rel }

// Wake notifies streams of (session, rel) that a mutation committed.
// Serving code calls it after the durable commit, so a woken stream
// always finds the frames on disk.
func (h *Hub) Wake(session, rel string) {
	key := streamKey(session, rel)
	h.mu.Lock()
	if ch, ok := h.wakers[key]; ok {
		close(ch)
		delete(h.wakers, key)
	}
	h.mu.Unlock()
}

// woken returns the channel the next Wake of (session, rel) closes.
func (h *Hub) woken(session, rel string) <-chan struct{} {
	key := streamKey(session, rel)
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.wakers[key]
	if !ok {
		ch = make(chan struct{})
		h.wakers[key] = ch
	}
	return ch
}

// ServeStream handles GET /repl/stream?session=K&relation=R&from=N: a
// long-lived application/octet-stream of WAL frames with seq > from,
// interleaved with heartbeats while idle. It answers 409 when from is
// below the WAL's streamable floor (the follower must resync from a
// snapshot) and ends the stream when the follower falls behind a
// truncation or overflows its queue.
func (h *Hub) ServeStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	session, relName := q.Get("session"), q.Get("relation")
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if session == "" || relName == "" || err != nil {
		http.Error(w, "repl: stream needs session, relation, and numeric from", http.StatusBadRequest)
		return
	}
	src, rerr := h.cfg.Resolve(session, relName)
	if rerr != nil {
		http.Error(w, rerr.Error(), http.StatusNotFound)
		return
	}
	if from < src.Log.StreamFloor() {
		http.Error(w, fmt.Sprintf("repl: position %d below stream floor %d: resync required", from, src.Log.StreamFloor()), http.StatusConflict)
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		http.Error(w, "repl: hub draining", http.StatusServiceUnavailable)
		return
	}
	h.streams++
	h.connects++
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.streams--
		h.disconnects++
		h.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()

	// The producer tails the WAL cursor into a bounded queue; this
	// handler goroutine drains it onto the wire under a write deadline.
	// The queue is the slow-follower bulkhead: the producer never
	// blocks on it — overflow ends the stream instead.
	ch := make(chan []byte, streamQueueLen)
	done := make(chan struct{})
	defer close(done)
	go h.produce(ch, done, r, src, session, relName, from)
	for batch := range ch {
		rc.SetWriteDeadline(time.Now().Add(4 * h.cfg.Heartbeat))
		if _, err := w.Write(batch); err != nil {
			return
		}
		rc.Flush()
	}
}

// produce tails src's WAL from the given position, batching frames
// into ch until the stream must end: context cancelled, hub closed,
// handler gone, queue overflow, truncation past the cursor, or the
// relation's head version becoming unreachable through the WAL.
func (h *Hub) produce(ch chan<- []byte, done <-chan struct{}, r *http.Request, src Source, session, relName string, from uint64) {
	defer close(ch)
	cur := src.Log.StreamFrom(from)
	defer cur.Close()
	hb := time.NewTicker(h.cfg.Heartbeat)
	defer hb.Stop()
	send := func(b []byte) bool {
		select {
		case ch <- b:
			return true
		default:
			h.mu.Lock()
			h.overflows++
			h.mu.Unlock()
			h.logf("repl: %s/%s: follower queue overflow, disconnecting", session, relName)
			return false
		}
	}
	for {
		batch, err := cur.Read(nil, streamBatchBytes)
		if err != nil {
			// Truncated past the cursor (follower slower than
			// checkpoint retention) or corrupt mid-log: end the stream;
			// the follower's gap detection resyncs from a snapshot.
			h.logf("repl: %s/%s: ending stream: %v", session, relName, err)
			return
		}
		if len(batch) > 0 {
			if !send(batch) {
				return
			}
			continue
		}
		// Idle. If the relation's head moved but the WAL cannot carry
		// the stream there (e.g. versions restored from a checkpoint
		// were never logged), frames will never arrive: force a resync.
		if v := src.Rel.Version(); v > cur.Seq() && src.Log.WALLastSeq() <= cur.Seq() {
			h.logf("repl: %s/%s: head %d unreachable from WAL, ending stream", session, relName, v)
			return
		}
		select {
		case <-h.woken(session, relName):
		case <-hb.C:
			if !send(AppendHeartbeat(nil, src.Rel.Version())) {
				return
			}
		case <-done:
			return
		case <-h.stop:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// ServeSnapshot handles GET /repl/snapshot?session=K&relation=R by
// streaming the relation's published snapshot in the checkpoint file
// format (SUCKPT01), which carries the version and a trailing CRC the
// follower verifies before restoring.
func (h *Hub) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	session, relName := q.Get("session"), q.Get("relation")
	src, err := h.cfg.Resolve(session, relName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	h.mu.Lock()
	h.snapshots++
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := wal.WriteCheckpointTo(w, src.Rel.CaptureSnapshot()); err != nil {
		h.logf("repl: %s/%s: snapshot send: %v", session, relName, err)
	}
}

// RecordAck folds a follower's progress report into the hub's metrics.
// An ack for a (session, relation) the hub cannot resolve is refused and
// leaves no trace, and the table holds at most maxAckEntries: anyone
// who can reach the endpoint can send acks, so neither junk nor
// follower restarts may grow it without bound.
func (h *Hub) RecordAck(follower, session, relName string, applied uint64, reconnects, resyncs uint64) error {
	if _, err := h.cfg.Resolve(session, relName); err != nil {
		return err
	}
	key := follower + "\x00" + streamKey(session, relName)
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.acks[key]
	if st == nil {
		if len(h.acks) >= maxAckEntries {
			var oldest string
			for k, a := range h.acks {
				if oldest == "" || a.last.Before(h.acks[oldest].last) {
					oldest = k
				}
			}
			delete(h.acks, oldest)
		}
		st = new(ackState)
		h.acks[key] = st
	}
	*st = ackState{AckRequest{follower, session, relName, applied, reconnects, resyncs}, time.Now()}
	return nil
}

// FollowerAck is one follower's progress on one relation, as last
// acked, with lag measured against the primary's current head.
type FollowerAck struct {
	Follower   string  `json:"follower"`
	Session    string  `json:"session"`
	Relation   string  `json:"relation"`
	Applied    uint64  `json:"applied"`
	Head       uint64  `json:"head"`
	LagRecords uint64  `json:"lag_records"`
	LagSeconds float64 `json:"lag_seconds"`
	Reconnects uint64  `json:"reconnects"`
	Resyncs    uint64  `json:"resyncs"`
}

// PrimarySnapshot is the primary-side replication metrics block.
type PrimarySnapshot struct {
	ActiveStreams   int           `json:"active_streams"`
	Connects        uint64        `json:"connects"`
	Disconnects     uint64        `json:"disconnects"`
	Overflows       uint64        `json:"overflows"`
	SnapshotsServed uint64        `json:"snapshots_served"`
	Followers       []FollowerAck `json:"followers,omitempty"`
}

// Snapshot returns the hub's metrics, computing per-follower lag
// against each relation's current head version; followers come ordered
// by (follower, session, relation), the order of their table keys.
func (h *Hub) Snapshot() PrimarySnapshot {
	h.mu.Lock()
	ps := PrimarySnapshot{
		ActiveStreams:   h.streams,
		Connects:        h.connects,
		Disconnects:     h.disconnects,
		Overflows:       h.overflows,
		SnapshotsServed: h.snapshots,
	}
	states := make([]ackState, 0, len(h.acks))
	for _, key := range slices.Sorted(maps.Keys(h.acks)) {
		states = append(states, *h.acks[key])
	}
	h.mu.Unlock()
	for _, st := range states {
		fa := FollowerAck{
			Follower:   st.Follower,
			Session:    st.Session,
			Relation:   st.Relation,
			Applied:    st.Applied,
			Reconnects: st.Reconnects,
			Resyncs:    st.Resyncs,
			LagSeconds: time.Since(st.last).Seconds(),
		}
		if src, err := h.cfg.Resolve(st.Session, st.Relation); err == nil {
			fa.Head = src.Rel.Version()
			if fa.Head > fa.Applied {
				fa.LagRecords = fa.Head - fa.Applied
			}
		}
		ps.Followers = append(ps.Followers, fa)
	}
	return ps
}
