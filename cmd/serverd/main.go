// Command serverd serves the union sampler over HTTP/JSON: a session
// registry multiplexes many concurrent clients onto few warm sampling
// sessions (one warm-up per distinct (union, options) declaration),
// with admission control, per-endpoint latency metrics, and graceful
// drain on SIGTERM.
//
// Usage:
//
//	serverd -addr :8080                      # built-in workloads only
//	serverd -addr :8080 -data ./data         # plus inline CSV specs
//	serverd -sessions 16 -max-inflight 256
//	serverd -data-dir /var/lib/serverd -fsync always
//
// With -data-dir, ingest is durable: every acked append is in a
// per-relation WAL first (fsynced per -fsync), relations checkpoint
// every -checkpoint-every mutations, and a restart recovers relations
// from checkpoint + WAL replay and re-prepares every registered
// session from the boot manifest — the daemon comes back warm with no
// acked row lost.
//
// With -follow <primary-url>, the daemon is a read-only replication
// follower: it streams the primary's WAL frames, serves draws from the
// replicated state, and answers writes with 307 to the primary. See
// the README's "Replication" section.
//
// Endpoints: POST /sample, /sample/where, /approx/{count,sum,avg,group},
// /estimate, /refresh, /relation/{name}/append; GET /healthz, /metrics.
// See the README's "Serving" and "Durability" sections for request
// bodies, curl examples, and ack semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sampleunion/internal/serve"
	"sampleunion/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "", "data directory for inline-spec CSV files (empty disables specs)")
	sessions := flag.Int("sessions", 8, "warm sessions kept in the registry (LRU beyond it)")
	maxInflight := flag.Int("max-inflight", 0, "draw requests executing at once before shedding 429s (0 = 16)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM/SIGINT")
	durableDir := flag.String("data-dir", "", "durable state directory: per-relation WALs, checkpoints, and the boot manifest (empty = memory-only)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: always (fsync before every append ack), interval (group commit), off")
	fsyncInterval := flag.Duration("fsync-interval", 2*time.Millisecond, "group-commit fsync cadence under -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", 4096, "mutations per relation between snapshot checkpoints (-1 disables)")
	follow := flag.String("follow", "", "run as a read-only replication follower of the primary at this base URL (e.g. http://127.0.0.1:8080)")
	replHeartbeat := flag.Duration("repl-heartbeat", time.Second, "replication heartbeat period (idle-stream liveness frames; followers treat ~4 silent periods as a dead peer)")
	replPoll := flag.Duration("repl-poll", 30*time.Second, "follower poll period for new sessions on the primary")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request execution deadline on draw endpoints; a draw past it answers 503 (0 disables)")
	flag.Parse()

	// Nonsense flags exit 2 with usage instead of reaching channel and
	// worker sizing (matching cmd/sampler's treatment of -warmup).
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *sessions < 1 {
		fail("serverd: -sessions must be >= 1, got %d", *sessions)
	}
	if *maxInflight < 0 {
		fail("serverd: -max-inflight must be >= 0 (0 = the default, 16), got %d", *maxInflight)
	}
	if *drainTimeout <= 0 {
		fail("serverd: -drain-timeout must be positive, got %v", *drainTimeout)
	}
	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fail("serverd: %v", err)
	}
	if *fsyncInterval <= 0 {
		fail("serverd: -fsync-interval must be positive, got %v", *fsyncInterval)
	}
	if *checkpointEvery == 0 {
		fail("serverd: -checkpoint-every must be >= 1 (or -1 to disable), got 0")
	}
	if *replHeartbeat <= 0 {
		fail("serverd: -repl-heartbeat must be positive, got %v", *replHeartbeat)
	}
	if *replPoll <= 0 {
		fail("serverd: -repl-poll must be positive, got %v", *replPoll)
	}
	if *requestTimeout < 0 {
		fail("serverd: -request-timeout must be >= 0 (0 disables), got %v", *requestTimeout)
	}

	srv := serve.New(serve.Config{
		DataDir:         *dataDir,
		SessionCap:      *sessions,
		MaxInflight:     *maxInflight,
		DurableDir:      *durableDir,
		FsyncPolicy:     policy,
		FsyncInterval:   *fsyncInterval,
		CheckpointEvery: *checkpointEvery,
		FollowPrimary:   *follow,
		ReplHeartbeat:   *replHeartbeat,
		RequestTimeout:  *requestTimeout,
	})
	if *durableDir != "" {
		start := time.Now()
		n, err := srv.RestoreSessions()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serverd: restore: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serverd: restored %d session(s) from %s in %v (fsync=%s)\n",
			n, *durableDir, time.Since(start).Round(time.Millisecond), policy)
	}
	if *follow != "" {
		// Follower mode: replicate the primary's sessions (restored
		// ones resume immediately, new ones arrive via the poll loop)
		// and answer writes with 307 to the primary. An unreachable
		// primary is not fatal — restored state keeps serving reads.
		if err := srv.StartFollower(*replPoll); err != nil {
			fmt.Fprintf(os.Stderr, "serverd: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serverd: following %s (heartbeat %v)\n", *follow, *replHeartbeat)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Idle keep-alive connections are bounded so dead clients do
		// not pin sockets forever; replication streams are exempt by
		// construction (they are never idle between frames longer than
		// the heartbeat period).
		IdleTimeout: 120 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "serverd: listening on %s (sessions=%d)\n", *addr, *sessions)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case got := <-sig:
		// Graceful drain: flip health to draining (load balancers fail
		// over; shed answers become 503 + Connection: close), stop
		// accepting, let in-flight requests finish, then exit. A second
		// signal (or the deadline) cuts the drain short.
		fmt.Fprintf(os.Stderr, "serverd: %v, draining (deadline %v)\n", got, *drainTimeout)
		srv.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-sig
			cancel()
		}()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "serverd: drain incomplete: %v\n", err)
			os.Exit(1)
		}
		srv.Close()
		fmt.Fprintln(os.Stderr, "serverd: drained cleanly")
	}
}
