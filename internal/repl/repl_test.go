package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sampleunion/internal/relation"
	"sampleunion/internal/wal"
)

// --- heartbeat convention (the frame codec itself is tested in wal) ---

func TestFrameRoundtrip(t *testing.T) {
	var wire []byte
	wire = wal.AppendFrame(wire, 1, []byte("alpha"))
	wire = AppendHeartbeat(wire, 7)
	wire = wal.AppendFrame(wire, 2, []byte{})
	wire = wal.AppendFrame(wire, 3, bytes.Repeat([]byte{0xAB}, 1000))

	fr := wal.NewFrameReader(bytes.NewReader(wire))
	seq, p, err := fr.Next()
	if err != nil || seq != 1 || string(p) != "alpha" {
		t.Fatalf("frame 1: seq=%d p=%q err=%v", seq, p, err)
	}
	if IsHeartbeat(p) {
		t.Fatal("data frame classified as heartbeat")
	}
	seq, p, err = fr.Next()
	if err != nil || seq != 7 || !IsHeartbeat(p) {
		t.Fatalf("heartbeat: seq=%d p=%v err=%v", seq, p, err)
	}
	seq, p, err = fr.Next()
	if err != nil || seq != 2 || len(p) != 0 {
		t.Fatalf("empty frame: seq=%d len=%d err=%v", seq, len(p), err)
	}
	seq, p, err = fr.Next()
	if err != nil || seq != 3 || len(p) != 1000 || p[500] != 0xAB {
		t.Fatalf("big frame: seq=%d len=%d err=%v", seq, len(p), err)
	}
	if _, _, err = fr.Next(); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
}

// --- fault injector ---

// faultPipe returns a fault-wrapped read end fed by a writer.
func faultPipe(fi *FaultInjector) (io.Writer, *faultConn) {
	cr, cw := net.Pipe()
	return cw, &faultConn{Conn: cr, fi: fi}
}

func writeAll(t *testing.T, w io.Writer, b []byte) {
	t.Helper()
	go func() {
		w.Write(b)
		if c, ok := w.(io.Closer); ok {
			c.Close()
		}
	}()
}

func TestFaultInjectorPassthroughWhenDisabled(t *testing.T) {
	fi := NewFaultInjector(FaultConfig{Seed: 1, DropProb: 1}) // not enabled
	w, conn := faultPipe(fi)
	writeAll(t, w, []byte("hello world"))
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("disabled injector mangled: %q, %v", got, err)
	}
	if fi.Stats() != (FaultStats{}) {
		t.Fatalf("disabled injector counted faults: %+v", fi.Stats())
	}
}

func TestFaultInjectorDrop(t *testing.T) {
	fi := NewFaultInjector(FaultConfig{Seed: 2, SegmentBytes: 4, DropProb: 1})
	fi.Enable()
	w, conn := faultPipe(fi)
	writeAll(t, w, []byte("0123456789abcdef"))
	got, err := io.ReadAll(conn)
	if err != nil || len(got) != 0 {
		t.Fatalf("full drop: %q, %v", got, err)
	}
	if fi.Stats().Drops == 0 {
		t.Fatal("drops not counted")
	}
}

func TestFaultInjectorDup(t *testing.T) {
	fi := NewFaultInjector(FaultConfig{Seed: 3, SegmentBytes: 64, DupProb: 1})
	fi.Enable()
	w, conn := faultPipe(fi)
	writeAll(t, w, []byte("abc"))
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != "abcabc" {
		t.Fatalf("dup: %q, %v", got, err)
	}
	if fi.Stats().Dups == 0 {
		t.Fatal("dups not counted")
	}
}

func TestFaultInjectorTruncatePoisons(t *testing.T) {
	fi := NewFaultInjector(FaultConfig{Seed: 4, SegmentBytes: 64, TruncateProb: 1})
	fi.Enable()
	w, conn := faultPipe(fi)
	go w.Write(bytes.Repeat([]byte{0x55}, 64)) // writer never closes
	buf := make([]byte, 256)
	var readErr error
	n := 0
	for {
		m, err := conn.Read(buf[n:])
		n += m
		if err != nil {
			readErr = err
			break
		}
	}
	if !errors.Is(readErr, errTruncatedConn) {
		t.Fatalf("poisoned read: %v, want errTruncatedConn", readErr)
	}
	if n >= 64 {
		t.Fatalf("truncate delivered all %d bytes", n)
	}
	if fi.Stats().Truncates == 0 {
		t.Fatal("truncates not counted")
	}
}

func TestFaultInjectorReorderSwapsSegments(t *testing.T) {
	// First segment is held, second flushes before it.
	fi := NewFaultInjector(FaultConfig{Seed: 5, SegmentBytes: 4, ReorderProb: 1})
	fi.Enable()
	w, conn := faultPipe(fi)
	go func() {
		w.Write([]byte("AAAA"))
		w.Write([]byte("BBBB"))
		w.(io.Closer).Close()
	}()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	// Every byte survives a reorder storm, just out of order.
	if len(got) != 8 || bytes.Count(got, []byte("A")) != 4 || bytes.Count(got, []byte("B")) != 4 {
		t.Fatalf("reorder lost bytes: %q", got)
	}
	if string(got) == "AAAABBBB" {
		t.Fatalf("reorder did not reorder: %q", got)
	}
	if fi.Stats().Reorders == 0 {
		t.Fatal("reorders not counted")
	}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	run := func() FaultStats {
		fi := NewFaultInjector(FaultConfig{
			Seed: 42, SegmentBytes: 8,
			DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.2, DelayProb: 0.1,
			MaxDelay: time.Microsecond,
		})
		fi.Enable()
		w, conn := faultPipe(fi)
		writeAll(t, w, bytes.Repeat([]byte("x"), 8*100))
		io.ReadAll(conn)
		return fi.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different faults: %+v vs %+v", a, b)
	}
	if a.Drops == 0 || a.Dups == 0 || a.Reorders == 0 {
		t.Fatalf("mixed config exercised nothing: %+v", a)
	}
}

// --- hub + follower integration ---

// primaryNode is a WAL-backed relation served over a real HTTP server
// through a Hub — the primary side of replication in miniature.
type primaryNode struct {
	rel *relation.Relation
	rl  *wal.RelationLog
	hub *Hub
	srv *httptest.Server
}

func newPrimaryNode(t *testing.T, hb time.Duration) *primaryNode {
	t.Helper()
	rel := relation.New("t", relation.NewSchema("a", "b"))
	rl, err := wal.OpenRelationLog(t.TempDir(), rel, wal.RelationLogOptions{
		Options: wal.Options{Policy: wal.SyncNever, SegmentBytes: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	rl.Attach()
	n := &primaryNode{rel: rel, rl: rl}
	n.hub = NewHub(HubConfig{
		Heartbeat: hb,
		Resolve: func(session, relName string) (Source, error) {
			if session != "sess" || relName != "t" {
				return Source{}, fmt.Errorf("unknown %s/%s", session, relName)
			}
			return Source{Rel: n.rel, Log: n.rl}, nil
		},
		Logf: t.Logf,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/stream", n.hub.ServeStream)
	mux.HandleFunc("GET /repl/snapshot", n.hub.ServeSnapshot)
	mux.HandleFunc("POST /repl/ack", func(w http.ResponseWriter, r *http.Request) {
		var a AckRequest
		if json.NewDecoder(r.Body).Decode(&a) == nil {
			n.hub.RecordAck(a.Follower, a.Session, a.Relation, a.Applied, a.Reconnects, a.Resyncs)
		}
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(func() {
		n.hub.Close()
		n.srv.Close()
		n.rl.Close()
	})
	return n
}

// relSink is the minimal Sink: a bare relation with no sampler, no WAL
// of its own and no sibling relations to order against.
type relSink struct{ rel *relation.Relation }

func (s relSink) ApplyRecord(seq uint64, payload []byte) (wal.ApplyOutcome, error) {
	return wal.ApplyRecord(s.rel, seq, payload)
}
func (s relSink) Flush() error { return nil }
func (s relSink) RestoreSnapshot(sd relation.SnapshotData) error {
	return s.rel.RestoreSnapshot(sd)
}

func relTarget(rel *relation.Relation) Target {
	return Target{Session: "sess", Relation: "t", Rel: rel, Sink: relSink{rel}}
}

// appendRows writes n sequential rows through the WAL and wakes streams,
// as the serving append path does.
func (n *primaryNode) appendRows(t *testing.T, rows int) {
	t.Helper()
	base := relation.Value(n.rel.Version())
	for i := 0; i < rows; i++ {
		n.rel.Append(relation.Tuple{base + relation.Value(i), (base + relation.Value(i)) * 2})
	}
	if err := n.rl.Commit(); err != nil {
		t.Fatal(err)
	}
	n.hub.Wake("sess", "t")
}

func newTestFollower(t *testing.T, n *primaryNode, client *http.Client, hb time.Duration) (*Follower, *relation.Relation) {
	t.Helper()
	frel := relation.New("t", relation.NewSchema("a", "b"))
	f := NewFollower(Options{
		Primary:    n.srv.URL,
		Client:     client,
		FollowerID: "f1",
		Heartbeat:  hb,
		Seed:       1,
		Logf:       t.Logf,
	})
	f.Add(relTarget(frel))
	t.Cleanup(f.Close)
	return f, frel
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplicationStreamsAndTails(t *testing.T) {
	n := newPrimaryNode(t, 20*time.Millisecond)
	n.appendRows(t, 100)
	_, frel := newTestFollower(t, n, n.srv.Client(), 20*time.Millisecond)

	waitUntil(t, "initial catch-up", func() bool { return frel.Version() == n.rel.Version() })
	if !reflect.DeepEqual(frel.Tuples(), n.rel.Tuples()) {
		t.Fatal("follower tuples differ from primary after catch-up")
	}
	// Live tail: new appends arrive without reconnecting.
	n.appendRows(t, 50)
	waitUntil(t, "tail catch-up", func() bool { return frel.Version() == n.rel.Version() })
	if !reflect.DeepEqual(frel.Tuples(), n.rel.Tuples()) {
		t.Fatal("follower tuples differ from primary after tail")
	}
}

func TestReplicationAcksReachPrimaryMetrics(t *testing.T) {
	n := newPrimaryNode(t, 10*time.Millisecond)
	n.appendRows(t, 20)
	f, frel := newTestFollower(t, n, n.srv.Client(), 10*time.Millisecond)

	waitUntil(t, "acked progress on primary", func() bool {
		ps := n.hub.Snapshot()
		return len(ps.Followers) == 1 && ps.Followers[0].Applied == n.rel.Version()
	})
	ps := n.hub.Snapshot()
	fa := ps.Followers[0]
	if fa.Follower != "f1" || fa.Session != "sess" || fa.Relation != "t" || fa.LagRecords != 0 {
		t.Fatalf("ack metrics wrong: %+v", fa)
	}
	fs := f.Snapshot()
	if len(fs.Targets) != 1 || fs.Targets[0].Applied != frel.Version() || !fs.Targets[0].Connected {
		t.Fatalf("follower metrics wrong: %+v", fs.Targets)
	}
}

// TestAckTableBoundedAndValidated: followers mint a fresh ID per boot
// and anyone can POST an ack, so the table must neither grow with every
// distinct ID nor remember relations the hub does not serve.
func TestAckTableBoundedAndValidated(t *testing.T) {
	n := newPrimaryNode(t, time.Second)
	for i := 0; i < 5000; i++ {
		if err := n.hub.RecordAck(fmt.Sprintf("follower-%d", i), "sess", "t", uint64(i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	fs := n.hub.Snapshot().Followers
	if len(fs) > maxAckEntries {
		t.Fatalf("%d followers in the snapshot after 5000 distinct IDs, cap is %d", len(fs), maxAckEntries)
	}
	// Eviction is least-recently-acked: the newest report survives.
	newest := false
	for _, fa := range fs {
		newest = newest || fa.Follower == "follower-4999"
	}
	if !newest {
		t.Fatal("the most recent ack was evicted")
	}
	if err := n.hub.RecordAck("f1", "no-such-session", "t", 1, 0, 0); err == nil {
		t.Fatal("ack for an unknown session accepted")
	}
	for _, fa := range n.hub.Snapshot().Followers {
		if fa.Session != "sess" {
			t.Fatalf("refused ack left a trace: %+v", fa)
		}
	}
}

func TestReplicationReconnectsAndResumes(t *testing.T) {
	n := newPrimaryNode(t, 10*time.Millisecond)
	n.appendRows(t, 30)
	f, frel := newTestFollower(t, n, n.srv.Client(), 10*time.Millisecond)
	waitUntil(t, "initial catch-up", func() bool { return frel.Version() == 30 })

	// Kill every live connection: the stream dies mid-flight and the
	// follower must reconnect and resume from its applied position —
	// without a resync, since its WAL position is still streamable.
	n.srv.CloseClientConnections()
	n.appendRows(t, 30)
	waitUntil(t, "post-disconnect catch-up", func() bool { return frel.Version() == 60 })
	ts := f.Snapshot().Targets[0]
	if ts.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want >= 2 (initial + resume)", ts.Reconnects)
	}
	if ts.Resyncs != 0 {
		t.Fatalf("resyncs = %d; resumable disconnect must not resync", ts.Resyncs)
	}
	if !reflect.DeepEqual(frel.Tuples(), n.rel.Tuples()) {
		t.Fatal("follower diverged across reconnect")
	}
}

// TestReplicationResumesFromSilentLoss: the first stream fails without
// any transport error — either its response header never arrives, or it
// delivers only heartbeats because every record the primary shipped on
// it was lost in transit, with nothing following to expose a sequence
// gap. The follower must give up on that stream within a few heartbeat
// periods, reconnect, and resume from its applied position; the WAL
// still holds the records, so no resync.
func TestReplicationResumesFromSilentLoss(t *testing.T) {
	const hb = 5 * time.Millisecond
	firstStream := map[string]func(n *primaryNode, w http.ResponseWriter, r *http.Request){
		"no response header": func(_ *primaryNode, _ http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		},
		"heartbeats only": func(n *primaryNode, w http.ResponseWriter, r *http.Request) {
			for r.Context().Err() == nil {
				w.Write(AppendHeartbeat(nil, n.rel.Version()))
				w.(http.Flusher).Flush()
				time.Sleep(hb)
			}
		},
	}
	for name, first := range firstStream {
		t.Run(name, func(t *testing.T) {
			n := newPrimaryNode(t, hb)
			n.appendRows(t, 10)
			var streams atomic.Int32
			front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path != "/repl/stream":
				case streams.Add(1) == 1:
					first(n, w, r)
				default:
					n.hub.ServeStream(w, r)
				}
			}))
			defer front.Close()

			frel := relation.New("t", relation.NewSchema("a", "b"))
			f := NewFollower(Options{
				Primary: front.URL, Client: front.Client(), FollowerID: "f1",
				Heartbeat: hb, Logf: t.Logf,
			})
			f.Add(relTarget(frel))
			defer f.Close()

			waitUntil(t, "catch-up on the second stream", func() bool { return frel.Version() == n.rel.Version() })
			if !reflect.DeepEqual(frel.Tuples(), n.rel.Tuples()) {
				t.Fatal("follower tuples differ from primary")
			}
			if ts := f.Snapshot().Targets[0]; ts.Resyncs != 0 {
				t.Fatalf("resyncs = %d; a resumable loss must not resync", ts.Resyncs)
			}
		})
	}
}

func TestReplicationResyncsWhenTruncatedPastPosition(t *testing.T) {
	n := newPrimaryNode(t, 10*time.Millisecond)
	// Two checkpoints raise the stream floor above zero: a follower
	// starting from 0 is refused (409) and must snapshot-resync.
	n.appendRows(t, 40)
	if err := n.rl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.appendRows(t, 40)
	if err := n.rl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n.rl.StreamFloor() == 0 {
		t.Fatal("test needs a raised stream floor")
	}

	f, frel := newTestFollower(t, n, n.srv.Client(), 10*time.Millisecond)
	waitUntil(t, "resync catch-up", func() bool { return frel.Version() == n.rel.Version() })
	if !reflect.DeepEqual(frel.Tuples(), n.rel.Tuples()) {
		t.Fatal("follower tuples differ after resync")
	}
	ts := f.Snapshot().Targets[0]
	if ts.Resyncs == 0 {
		t.Fatal("follower caught up without the resync the floor demands")
	}
	// After the resync the live stream still works.
	n.appendRows(t, 10)
	waitUntil(t, "post-resync tail", func() bool { return frel.Version() == n.rel.Version() })
}

func TestReplicationRefusesSnapshotBehindLocalState(t *testing.T) {
	n := newPrimaryNode(t, 10*time.Millisecond)
	n.appendRows(t, 10)

	// Follower already holds MORE history than the primary: resync must
	// refuse to roll it back (divergence), not silently truncate.
	frel := relation.New("t", relation.NewSchema("a", "b"))
	for i := 0; i < 50; i++ {
		frel.Append(relation.Tuple{relation.Value(i), relation.Value(i)})
	}
	f := NewFollower(Options{
		Primary: n.srv.URL, Client: n.srv.Client(), FollowerID: "f1",
		Heartbeat: 10 * time.Millisecond, Logf: t.Logf,
	})
	rep := &replicator{f: f, t: relTarget(frel)}
	err := rep.resync()
	if err == nil || frel.Version() != 50 {
		t.Fatalf("resync rolled back diverged state: err=%v version=%d", err, frel.Version())
	}
	ts := rep.snapshot()
	if ts.Divergences != 1 {
		t.Fatalf("divergences = %d, want 1", ts.Divergences)
	}
	f.Close()
}

func TestReplicationSurvivesFaultyTransport(t *testing.T) {
	// A lighter-weight cousin of the serve-level chaos test: stream 200
	// rows through a transport that drops, duplicates, reorders, delays,
	// and truncates — the follower must still converge byte-for-byte.
	n := newPrimaryNode(t, 10*time.Millisecond)
	fi := NewFaultInjector(FaultConfig{
		Seed: 77, SegmentBytes: 256,
		DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.05,
		TruncateProb: 0.03, DelayProb: 0.05, MaxDelay: time.Millisecond,
	})
	fi.Enable()
	client := &http.Client{Transport: &http.Transport{DialContext: fi.DialContext(nil)}}

	f, frel := newTestFollower(t, n, client, 10*time.Millisecond)
	for i := 0; i < 10; i++ {
		n.appendRows(t, 20)
		time.Sleep(5 * time.Millisecond)
	}
	// End the storm so convergence is reachable, then assert it.
	fi.Disable()
	waitUntil(t, "chaos convergence", func() bool { return frel.Version() == n.rel.Version() })
	if !reflect.DeepEqual(frel.Tuples(), n.rel.Tuples()) {
		t.Fatal("follower diverged from primary under transport faults")
	}
	st := fi.Stats()
	if st.Drops+st.Dups+st.Reorders+st.Truncates+st.Delays == 0 {
		t.Fatal("fault injector never fired; the test asserted nothing")
	}
	ts := f.Snapshot().Targets[0]
	t.Logf("chaos: faults=%+v reconnects=%d resyncs=%d duplicates=%d",
		st, ts.Reconnects, ts.Resyncs, ts.Duplicates)
}

func TestHubStreamRejectsBadRequests(t *testing.T) {
	n := newPrimaryNode(t, 50*time.Millisecond)
	for _, q := range []string{
		"",                                  // everything missing
		"session=sess&relation=t",           // from missing
		"session=sess&relation=t&from=abc",  // from not numeric
		"session=nope&relation=t&from=0",    // unknown source
		"session=sess&relation=nope&from=0", // unknown relation
	} {
		resp, err := n.srv.Client().Get(n.srv.URL + "/repl/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("query %q: status %d, want 400/404", q, resp.StatusCode)
		}
	}
}
