package core

import (
	"testing"
	"time"

	"sampleunion/internal/rng"
)

// TestBookBatchTimeSumsExactly: whatever the attempt mix, each call's
// elapsed time lands in full on both splits — no nanosecond is lost to
// the proportional shares' rounding.
func TestBookBatchTimeSumsExactly(t *testing.T) {
	var s Stats
	var booked time.Duration
	g := rng.New(71)
	for call := 0; call < 200; call++ {
		before := s
		s.Accepted += g.Intn(50)
		s.JoinRejects += g.Intn(50)
		s.RejectedDup += g.Intn(5)
		s.ReuseAccepted += g.Intn(7)
		s.ReuseRejected += g.Intn(7)
		d := time.Duration(1 + g.Intn(1_000_003))
		s.bookBatchTime(&before, d)
		booked += d
	}
	// A call that attempted nothing still books its time.
	before := s
	s.bookBatchTime(&before, 17)
	booked += 17
	if got := s.AcceptTime + s.RejectTime; got != booked {
		t.Errorf("AcceptTime+RejectTime = %v, booked %v", got, booked)
	}
	if got := s.ReuseTime + s.RegularTime; got != booked {
		t.Errorf("ReuseTime+RegularTime = %v, booked %v", got, booked)
	}
}

// TestStatsInvariantsAcrossCalls draws k consecutive calls on every
// kind of run and checks what Stats promises: both time splits account
// for the same booked total (positive, and for a single-stream run no
// more than the wall time around the calls), and every counter is exact
// — attempts partition into their outcomes, per-join slices sum to the
// aggregates, and accepted tuples are either delivered, dropped by a
// counted revision/backtrack, or still buffered.
func TestStatsInvariantsAcrossCalls(t *testing.T) {
	joins := fixtureJoins(t)
	exact := &ExactEstimator{Joins: joins}
	sharded, _ := prepareShardedFixture(t, 3)
	online := onlineReuseRun(t, joins, OnlineConfig{WarmupWalks: 300, Phi: 100})
	pooled := func() (n int) {
		for _, je := range online.walks.JoinEstimates() {
			n += len(je.Samples())
		}
		return n
	}
	pool := pooled()
	cases := []struct {
		name string
		run  Run
	}{
		{"cover-ew", coverRun(t, joins, CoverConfig{Method: MethodEW, Estimator: exact})},
		{"cover-eo-oracle", coverRun(t, joins, CoverConfig{Method: MethodEO, Estimator: exact})},
		{"disjoint-eo", disjointRun(t, joins, MethodEO)},
		{"bernoulli", bernoulliRun(t, joins, MethodEW, exact)},
		{"sharded", sharded.NewRun()},
		{"online-reuse", online},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := rng.New(int64(90 + i))
			delivered := 0
			start := time.Now()
			for _, n := range []int{1, 64, 7, 500, 64} {
				out, err := c.run.Sample(n, g)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != n {
					t.Fatalf("Sample(%d) returned %d tuples", n, len(out))
				}
				delivered += n
			}
			wall := time.Since(start)
			st := c.run.Stats()

			booked := st.AcceptTime + st.RejectTime
			if phases := st.ReuseTime + st.RegularTime; phases != booked {
				t.Errorf("AcceptTime+RejectTime = %v but ReuseTime+RegularTime = %v", booked, phases)
			}
			if booked <= 0 {
				t.Errorf("booked %v, want > 0", booked)
			}
			// A sharded run sums the elapsed times of sub-batches that ran
			// concurrently, so only a single-stream run is bounded by the
			// wall clock.
			if _, concurrent := c.run.(*ShardedSampler); !concurrent && booked > wall {
				t.Errorf("booked %v exceeds wall %v", booked, wall)
			}

			// Online acceptances carry a multiplicity and over-fill the
			// buffer; everywhere else one attempt has one outcome and the
			// buffer drains to exactly n.
			buffered := 0
			if c.run == Run(online) {
				buffered = len(online.result)
			} else if got := st.Accepted + st.JoinRejects + st.RejectedDup; got != st.TotalDraws {
				t.Errorf("outcomes sum to %d, attempts %d: %+v", got, st.TotalDraws, st)
			}
			var draws, rejected, accepted int
			for _, jb := range st.Joins {
				draws += jb.Draws
				rejected += jb.Rejected
				accepted += jb.Accepted
			}
			// Per-join draws add the reuse-pool draws to the fresh ones, and
			// every pool draw has one of three outcomes.
			reused := st.ReuseAccepted + st.ReuseRejected + st.ReuseRejectedDup
			if want := st.TotalDraws + reused; draws != want {
				t.Errorf("per-join draws sum to %d, want %d", draws, want)
			}
			if c.run == Run(online) {
				if drawn := pool - pooled(); drawn == 0 || drawn != reused || st.ReuseRejectedDup == 0 || st.ReuseRejectedDup > st.RejectedDup {
					t.Errorf("%d pool draws, but accepted %d + thinned %d + duplicate %d (of %d duplicates)",
						drawn, st.ReuseAccepted, st.ReuseRejected, st.ReuseRejectedDup, st.RejectedDup)
				}
			} else if reused != 0 {
				t.Errorf("%d pool draws on a run without a pool", reused)
			}
			if rejected != st.JoinRejects || accepted != st.Accepted {
				t.Errorf("per-join rejected/accepted %d/%d, aggregates %d/%d", rejected, accepted, st.JoinRejects, st.Accepted)
			}
			if got := st.Accepted - st.BacktrackDropped; got != delivered+buffered {
				t.Errorf("accepted-removed = %d, delivered %d + buffered %d", got, delivered, buffered)
			}
		})
	}
}
