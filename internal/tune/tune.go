// Package tune turns observed sampling statistics into an execution
// plan for a union-of-joins sampling session: which warm-up to run,
// how many walks to spend per join, which join subroutine (EW/EO/WJ)
// to use per join, where alias tables pay for themselves, and how many
// attempts a batch slice may spend per accepted selection.
//
// The package is deliberately free of engine dependencies: it consumes
// plain numbers (JoinStats) and produces plain numbers (Plan), so the
// planner is a pure function that is trivially unit-testable and —
// because the statistics it reads derive only from the seeded warm-up
// stream — deterministic. The engine layers (core, session) gather the
// statistics and apply the decisions.
//
// The Method and Warmup enums are numerically identical to their
// core/sampleunion counterparts (EW=0, EO=1, WJ=2; histogram=0,
// random-walk=1, exact=2), so casts between the packages are direct.
//
// Nothing in the product plans: every session samples under the pinned
// configuration its Options name (CHANGES.md PR 24 has the measurement
// that retired the adaptive mode). Build's only caller is the frozen
// benchmark module's tune.plan_us probe (benchmark/layers.go), which
// compiles against JoinStats, Config, Build and Plan; the package goes
// when that probe does (ROADMAP item 4).
package tune

import "math"

// Method mirrors the join-subroutine enum (EW=0, EO=1, WJ=2).
type Method int

const (
	// MethodEW is exact-weight sampling: linear setup over the join's
	// rows, zero rejection on tree joins.
	MethodEW Method = iota
	// MethodEO is Olken sampling: near-zero setup, rejection governed
	// by size/OlkenBound.
	MethodEO
	// MethodWJ is wander-join walks thinned against the Olken bound:
	// no setup at all, rejection comparable to EO.
	MethodWJ
)

// String names the method the way the engine does.
func (m Method) String() string {
	switch m {
	case MethodEW:
		return "EW"
	case MethodEO:
		return "EO"
	case MethodWJ:
		return "WJ"
	}
	return "unknown"
}

// Warmup mirrors the warm-up enum (histogram=0, random-walk=1, exact=2).
type Warmup int

const (
	// WarmupHistogram estimates from statistics only.
	WarmupHistogram Warmup = iota
	// WarmupRandomWalk estimates by Horvitz–Thompson over walks.
	WarmupRandomWalk
	// WarmupExact executes the joins (validation scales only).
	WarmupExact
)

// String names the warm-up the way the engine does.
func (w Warmup) String() string {
	switch w {
	case WarmupHistogram:
		return "histogram"
	case WarmupRandomWalk:
		return "random-walk"
	case WarmupExact:
		return "exact"
	}
	return "unknown"
}

// JoinStats are the observed inputs the planner reads for one join.
// The warm-up fields come from the walk estimator; the structural
// fields from the join itself; the feedback fields from draw-loop
// counters (zero before any draws).
type JoinStats struct {
	// Walks is the number of warm-up walks folded into the estimate.
	Walks int
	// Size is the current size estimate (exact if Exact is set).
	Size float64
	// RelHalfWidth is the confidence half-width divided by Size
	// (+Inf when no estimate exists yet).
	RelHalfWidth float64
	// Exact marks Size as an exact count rather than an estimate.
	Exact bool
	// OlkenBound is the join's rejection bound (root rows × Π max
	// degree): size/bound is the EO/WJ acceptance probability.
	OlkenBound float64
	// Rows is the total base-relation row count across the join's
	// nodes — the setup cost EW pays to build exact weights.
	Rows int64
	// Share is the join's weight share of the union (its size over the
	// summed sizes), the probability a cover draw lands on it.
	Share float64
	// Cyclic marks joins with a residual part: exact counting is
	// exponential there, so escalation falls back to more walks.
	Cyclic bool

	// Draws and Rejected are cumulative draw-loop feedback: attempts
	// routed at this join and how many its subroutine rejected.
	Draws    int64
	Rejected int64
}

// Acceptance is the planner's per-attempt acceptance probability for
// rejection-based subroutines on this join: observed rejection rates
// once enough draws accumulated, the size/OlkenBound prior before.
func (s JoinStats) Acceptance(minFeedback int64) float64 {
	if s.Draws >= minFeedback && s.Draws > 0 {
		return float64(s.Draws-s.Rejected) / float64(s.Draws)
	}
	if s.OlkenBound <= 0 || s.Size <= 0 {
		return 1
	}
	a := s.Size / s.OlkenBound
	if a > 1 {
		a = 1
	}
	return a
}

// JoinPlan is the planner's decision for one join.
type JoinPlan struct {
	// Method is the join subroutine to sample with.
	Method Method
	// Exact escalates the join's size estimation to an exact count
	// (tree joins only: the skeleton count is linear there).
	Exact bool
	// AliasThreshold is the weighted-row vector length at which batch
	// draws build an alias table (0 = always, NeverAlias = never).
	AliasThreshold int
	// WalkBudget is the join's warm-up walk budget for the next
	// (re-)warm.
	WalkBudget int
}

// Plan is one complete set of tuning decisions. A Plan is a pure
// function of the observed statistics, which are a pure function of
// the seeded warm-up stream — so auto-tuned sessions stay reproducible.
type Plan struct {
	// Warmup is the warm-up mode for the next (re-)warm.
	Warmup Warmup
	// Joins holds the per-join decisions, indexed like the union.
	Joins []JoinPlan
	// MaxDrawsPerSelection caps attempts per accepted selection in
	// batch slices; the planner raises it when predicted rejection
	// rates would otherwise starve a slice.
	MaxDrawsPerSelection int
}

// NeverAlias is an alias threshold no weighted-row vector reaches:
// bounded binary-search draws only.
const NeverAlias = 1 << 30

// DefaultAliasThreshold matches the engine's fixed pre-tuning
// threshold; explicit (non-auto) sessions keep using exactly this.
const DefaultAliasThreshold = 32

// Config bounds the planner's decisions.
type Config struct {
	// WalkBudget is the initial per-join warm-up walk budget
	// (default 128; early stopping usually spends far less).
	WalkBudget int
	// MaxWalkBudget caps per-join escalation of the walk budget
	// (default 1024).
	MaxWalkBudget int
	// EscalateRel is the relative half-width above which a tree join's
	// estimate escalates to an exact count, and a cyclic join's walk
	// budget grows (default 0.2).
	EscalateRel float64
	// MinAccept is the acceptance probability below which
	// rejection-based subroutines are judged too expensive and the
	// join switches to EW (default 1/16).
	MinAccept float64
	// MaxSetupRows bounds the base rows EW setup may touch; past it a
	// low-acceptance join falls back to WJ, which needs no setup
	// (default 4Mi rows).
	MaxSetupRows int64
	// HeavyShare is the union weight share above which a join's alias
	// tables are built aggressively; LightShare the share below which
	// they are never built (defaults 0.25 and 0.01).
	HeavyShare float64
	LightShare float64
	// RejectTrigger is the observed rejection rate past which the
	// controller flags a re-plan (default 0.9), once MinFeedbackDraws
	// attempts accumulated (default 512).
	RejectTrigger    float64
	MinFeedbackDraws int64
}

func (c Config) withDefaults() Config {
	if c.WalkBudget <= 0 {
		c.WalkBudget = 128
	}
	if c.MaxWalkBudget <= 0 {
		c.MaxWalkBudget = 1024
	}
	if c.EscalateRel <= 0 {
		c.EscalateRel = 0.2
	}
	if c.MinAccept <= 0 {
		c.MinAccept = 1.0 / 16
	}
	if c.MaxSetupRows <= 0 {
		c.MaxSetupRows = 4 << 20
	}
	if c.HeavyShare <= 0 {
		c.HeavyShare = 0.25
	}
	if c.LightShare <= 0 {
		c.LightShare = 0.01
	}
	if c.RejectTrigger <= 0 {
		c.RejectTrigger = 0.9
	}
	if c.MinFeedbackDraws <= 0 {
		c.MinFeedbackDraws = 512
	}
	return c
}

// Build is the planner: a pure function from observed statistics to a
// plan. Decisions, per join:
//
//   - subroutine: EO while its acceptance probability (observed
//     rejection rate once available, size/OlkenBound before) stays
//     above MinAccept; below it, EW unless its linear setup is
//     unaffordable (Rows > MaxSetupRows), then WJ;
//   - exact escalation: tree joins whose estimate is still wider than
//     EscalateRel × size after warm-up get exact counts;
//   - walk budget: cyclic joins (no exact fallback) with wide
//     estimates get their budget doubled, up to MaxWalkBudget;
//   - alias threshold: heavy joins (share ≥ HeavyShare) build alias
//     tables aggressively, light joins (share < LightShare) never do,
//     the rest keep the default threshold.
//
// Plan-wide, MaxDrawsPerSelection grows with the worst predicted
// tries-per-accept so high-rejection joins cannot starve batch slices.
func Build(cfg Config, stats []JoinStats) Plan {
	cfg = cfg.withDefaults()
	p := Plan{
		Warmup:               WarmupRandomWalk,
		Joins:                make([]JoinPlan, len(stats)),
		MaxDrawsPerSelection: 256,
	}
	worstTries := 1.0
	for i, s := range stats {
		jp := JoinPlan{
			Method:         MethodEO,
			AliasThreshold: DefaultAliasThreshold,
			WalkBudget:     cfg.WalkBudget,
		}
		a := s.Acceptance(cfg.MinFeedbackDraws)
		if a < cfg.MinAccept {
			if s.Rows <= cfg.MaxSetupRows {
				jp.Method = MethodEW
			} else {
				jp.Method = MethodWJ
			}
		}
		if jp.Method != MethodEW && a > 0 && 1/a > worstTries {
			worstTries = 1 / a
		}
		wide := s.Walks > 0 && !s.Exact &&
			(math.IsInf(s.RelHalfWidth, 1) || s.RelHalfWidth > cfg.EscalateRel)
		if wide {
			if s.Cyclic {
				jp.WalkBudget = 2 * maxInt(s.Walks, cfg.WalkBudget)
				if jp.WalkBudget > cfg.MaxWalkBudget {
					jp.WalkBudget = cfg.MaxWalkBudget
				}
			} else {
				jp.Exact = true
			}
		}
		switch {
		case s.Share >= cfg.HeavyShare:
			jp.AliasThreshold = DefaultAliasThreshold / 2
		case s.Share < cfg.LightShare:
			jp.AliasThreshold = NeverAlias
		}
		p.Joins[i] = jp
	}
	// EW joins never reject on trees, but a slice still needs headroom
	// for the rejection-based joins it shares the union with.
	if n := int(16 * worstTries); n > p.MaxDrawsPerSelection {
		p.MaxDrawsPerSelection = n
	}
	if p.MaxDrawsPerSelection > 4096 {
		p.MaxDrawsPerSelection = 4096
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
