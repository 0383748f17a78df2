package core

import (
	"fmt"
	"time"
)

// Stats instruments a sampling run: the counters and time breakdown
// behind Fig 5f–5h (estimation vs accepted vs rejected time) and
// Fig 6b (per-sample cost of the reuse phase vs the regular phase).
type Stats struct {
	// Accepted counts tuples added to the result.
	Accepted int
	// RejectedDup counts set-union rejections: an earlier join contains
	// the tuple's value (line 8 of Algorithm 1).
	RejectedDup int
	// Revised is always zero: ownership is decided by membership, so
	// nothing is ever revised. The field stays because the frozen
	// benchmark/layers.go compiles against it.
	Revised int
	// JoinRejects counts join-subroutine rejections (EO accept/reject,
	// dangling walks).
	JoinRejects int
	// ReuseAccepted / ReuseRejected / ReuseRejectedDup partition the
	// reuse-pool draws (Algorithm 2): committed, thinned to zero instances,
	// or rejected as an earlier join's value (a slice of RejectedDup).
	ReuseAccepted    int
	ReuseRejected    int
	ReuseRejectedDup int
	// Backtracks counts parameter-update rounds; BacktrackDropped the
	// result tuples removed by backtracking (§7).
	Backtracks       int
	BacktrackDropped int
	// TotalDraws counts every call into a join subroutine — the cost
	// unit of Theorem 2.
	TotalDraws int

	// Joins breaks the draw-loop counters down per join (indexed like
	// the union): where the attempts went, which joins' subroutines
	// rejected them, and how converged each join's size estimate was.
	// The aggregate fields above remain authoritative; Joins slices the
	// subroutine-level activity so callers inspecting skew can attribute
	// rejection cost to the join causing it. Union-level duplicate rejections (RejectedDup) are a property
	// of the overlap, not of a join's subroutine, and are not broken
	// down.
	Joins []JoinBreakdown

	// WarmupTime is spent estimating parameters; AcceptTime is spent on
	// draws that ended accepted; RejectTime on draws that ended
	// rejected. ReuseTime/RegularTime hold the total time (accepted and
	// rejected attempts) of the reuse and regular phases of the online
	// sampler, so dividing by ReuseAccepted and Accepted-ReuseAccepted
	// reproduces the paper's Fig 6b per-phase cost metric. The clock is
	// read once per Sample call and split by attempt counts
	// (bookBatchTime): a phase comparison is as fine-grained as the
	// calls it is drawn in.
	WarmupTime  time.Duration
	AcceptTime  time.Duration
	RejectTime  time.Duration
	ReuseTime   time.Duration
	RegularTime time.Duration
}

// JoinBreakdown is one join's slice of a run's draw-loop counters.
type JoinBreakdown struct {
	// Accepted counts tuples of this join added to the result
	// (instances, for the online sampler's multiplicity system).
	Accepted int
	// Rejected counts this join's subroutine rejections — its slice of
	// Stats.JoinRejects.
	Rejected int
	// Draws counts subroutine attempts routed at this join — its slice
	// of Stats.TotalDraws, plus reuse-pool draws in online mode.
	Draws int
	// CoverRelHalfWidth is the join's cover-size relative confidence
	// half-width (walkest.CoverRelHalfWidth) as of the run's current walk
	// state: 0 when the mode runs no walks, +Inf before any walk observed
	// the join and while its cover is estimated at zero.
	CoverRelHalfWidth float64
}

// reset zeroes the Stats for a union of n joins, keeping the per-join
// breakdown's storage: a recycled run starts its counters over without
// allocating.
func (s *Stats) reset(n int) {
	joins := s.Joins
	if cap(joins) < n {
		joins = make([]JoinBreakdown, n)
	}
	joins = joins[:n]
	clear(joins)
	*s = Stats{Joins: joins}
}

// bookDraws counts tries subroutine attempts routed at join j, got of
// which the subroutine accepted.
func (s *Stats) bookDraws(j, tries, got int) {
	s.TotalDraws += tries
	s.JoinRejects += tries - got
	s.Joins[j].Draws += tries
	s.Joins[j].Rejected += tries - got
}

// bookBatchTime attributes one Sample call's elapsed wall time to the
// duration fields. The engines read the clock once per call — time.Now
// stays out of the draw loop — so the elapsed time splits
// proportionally to the call's attempt counts (before is the Stats
// snapshot taken when the call started): AcceptTime vs RejectTime by
// accepted vs rejected attempts, ReuseTime vs RegularTime by reuse vs
// fresh attempts. Each pair sums to exactly d, so over any number of
// calls AcceptTime+RejectTime == ReuseTime+RegularTime == the total
// time booked; counters are always exact.
func (s *Stats) bookBatchTime(before *Stats, d time.Duration) {
	acc := s.Accepted - before.Accepted
	rej := (s.JoinRejects - before.JoinRejects) +
		(s.RejectedDup - before.RejectedDup) +
		(s.ReuseRejected - before.ReuseRejected)
	reuse := (s.ReuseAccepted - before.ReuseAccepted) +
		(s.ReuseRejected - before.ReuseRejected) +
		(s.ReuseRejectedDup - before.ReuseRejectedDup)
	total := acc + rej
	if total <= 0 {
		s.AcceptTime += d
		s.RegularTime += d
		return
	}
	share := func(part int) time.Duration {
		return time.Duration(float64(d) * float64(part) / float64(total))
	}
	accept := share(acc)
	s.AcceptTime += accept
	s.RejectTime += d - accept
	if reuse > total {
		reuse = total
	}
	reused := share(reuse)
	s.ReuseTime += reused
	s.RegularTime += d - reused
}

func (s *Stats) String() string {
	return fmt.Sprintf(
		"accepted=%d dupRejected=%d joinRejects=%d reuse=%d/%d backtracks=%d draws=%d warmup=%v accept=%v reject=%v",
		s.Accepted, s.RejectedDup, s.JoinRejects,
		s.ReuseAccepted, s.ReuseAccepted+s.ReuseRejected+s.ReuseRejectedDup,
		s.Backtracks, s.TotalDraws, s.WarmupTime, s.AcceptTime, s.RejectTime)
}
