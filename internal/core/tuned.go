package core

import (
	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/rng"
	"sampleunion/internal/tune"
	"sampleunion/internal/walkest"
)

// This file wires the adaptive planner (internal/tune) into the
// prepared samplers. The division of labor: tune.Build is a pure
// function from observed statistics to a Plan; this file gathers those
// statistics from a warm-up (sizes and cover shares from Params,
// relative confidence half-widths from the walk estimator, structural
// facts from the joins) and applies the resulting decisions (per-join
// subroutine configs, exact-count escalation, walk-budget escalation,
// the batch slice cap).
//
// Determinism: every input to the plan derives from the seeded warm-up
// stream plus draw counters the controller folded in at the previous
// re-plan boundary, so for a fixed seed, data, and call history the
// plan — and therefore the sampler behavior — is reproducible. Plans
// change only at Prepare/Refresh boundaries, never mid-stream.

// gatherTuneStats assembles the planner inputs for a union from a
// completed warm-up. walker carries per-join walk estimates when
// the warm-up was walk-based (nil otherwise); exact marks the sizes as
// ground truth (the exact estimator), which suppresses escalation.
func gatherTuneStats(joins []*join.Join, params *Params, walker *walkest.Estimator, exact bool) []tune.JoinStats {
	stats := make([]tune.JoinStats, len(joins))
	for i, j := range joins {
		st := tune.JoinStats{
			Size:       params.JoinSizes[i],
			OlkenBound: j.OlkenBound(),
			Cyclic:     j.IsCyclic(),
			Exact:      exact,
		}
		if params.UnionSize > 0 {
			st.Share = params.Cover[i] / params.UnionSize
		}
		for _, n := range j.Nodes() {
			st.Rows += int64(n.Rel.Len())
		}
		if walker != nil {
			je := walker.JoinEstimates()[i]
			st.Walks = je.Walks()
			st.RelHalfWidth = je.RelHalfWidth(walker.Z())
		}
		stats[i] = st
	}
	return stats
}

// planJoinConfigs translates a plan's per-join decisions into the
// union base's subroutine configs.
func planJoinConfigs(p *tune.Plan) []joinConfig {
	cfgs := make([]joinConfig, len(p.Joins))
	for i, jp := range p.Joins {
		cfgs[i] = joinConfig{method: JoinMethod(jp.Method), aliasMin: jp.AliasThreshold}
	}
	return cfgs
}

// applyPlanEstimates applies a plan's estimation escalations against a
// walk-based warm-up and returns the (possibly rebuilt) parameters
// plus the per-join exact-size overrides that produced them (nil when
// nothing escalated):
//
//   - joins flagged Exact get an exact skeleton count (linear on tree
//     joins, via the EW weight pass) overriding their HT size
//     estimate, with their overlap estimates rescaled to match
//     (walkest.TableWithSizes);
//   - joins whose walk budget grew walk until the new budget (or
//     convergence) is reached, refining the estimate in place.
//
// With a nil walker (histogram or exact warm-up) there is no walk
// state to escalate from and params pass through unchanged.
func applyPlanEstimates(base *unionBase, p *tune.Plan, params *Params, walker *walkest.Estimator, g *rng.RNG) (*Params, []float64, error) {
	if walker == nil {
		return params, nil, nil
	}
	rebuild := false
	var sizes []float64
	for i, jp := range p.Joins {
		if jp.WalkBudget > walker.JoinEstimates()[i].Walks() {
			walker.WarmupJoin(i, jp.WalkBudget, g)
			rebuild = true
		}
		if !jp.Exact {
			continue
		}
		if sizes == nil {
			sizes = make([]float64, len(p.Joins))
			for k := range sizes {
				sizes[k] = -1
			}
		}
		// The EW weight pass computes the exact skeleton count as a
		// byproduct; when the plan also samples this join with EW, the
		// sampler built here is kept, so escalation costs nothing extra.
		was, _ := base.samplers[i].(*joinsample.EW)
		ew := joinsample.NewEWFrom(base.joins[i], jp.AliasThreshold, was)
		sizes[i] = float64(ew.ExactCount())
		if jp.Method == tune.MethodEW {
			base.cfgs[i] = joinConfig{method: MethodEW, aliasMin: jp.AliasThreshold}
			base.samplers[i], base.pending[i] = ew, false
		}
		rebuild = true
	}
	if !rebuild {
		return params, sizes, nil
	}
	t, err := walker.TableWithSizes(sizes)
	if err != nil {
		return nil, nil, err
	}
	return ParamsFromTable(t), sizes, nil
}

// dropDirtyFeedback forgets the rejection feedback of the joins a
// refresh found mutated: like their walk estimates, it observed a join
// that no longer exists, and the re-plan must read their fresh
// size/bound priors instead. Clean joins keep theirs — on a
// rejection-triggered re-plan over clean data that feedback IS the
// signal. A nil controller (no tuner) has nothing to forget.
func dropDirtyFeedback(c *tune.Controller, dirty []bool) {
	for j, d := range dirty {
		if d && c != nil {
			c.DropFeedback(j)
		}
	}
}

// tuneWalker extracts the retained walk estimator from a warm-up
// estimator, when it has one.
func tuneWalker(est Estimator) *walkest.Estimator {
	switch e := est.(type) {
	case *RandomWalkEstimator:
		return e.Walker
	case *onlineWarmup:
		return e.walks
	}
	return nil
}

// ObserveRun feeds one completed run's per-join draw counters into a
// controller as rejection feedback. A nil controller takes none.
func ObserveRun(c *tune.Controller, joins []JoinBreakdown) {
	if c == nil {
		return
	}
	for j, jb := range joins {
		c.ObserveDraws(j, int64(jb.Draws), int64(jb.Rejected))
	}
}
