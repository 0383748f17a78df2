package bench

import (
	"fmt"
	"time"

	su "sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/tpch"
)

// Adaptive pits the tuner (WarmupAuto) against a hand-tuned grid of
// fixed configurations: each scenario is prepared and sampled end to
// end — warm-up plus N draws, plus a mutation burst, refresh, and N
// more draws where the scenario mutates — under every configuration,
// and the row compares auto against the grid's best and worst. The
// adversarial scenarios are built to punish a wrong fixed
// choice: zipfian join degrees make rejection subroutines
// (EO, WJ) pay tens of tries per draw, a 1000x share skew concentrates
// that cost in one join, and a skew-inverting burst moves it to the
// other join mid-session. The bars: auto >= 1.5x better than the worst
// fixed configuration on >= 2 adversarial scenarios and never worse than
// 2x the best. (Against the best — random-walk + EW everywhere — auto
// is on par, not ahead: the adversarial runs last a millisecond or a
// few, and the ratio moves between 0.6x and 1.5x from run to run.)
func Adaptive(o Options) (*Result, error) {
	o = o.withDefaults()
	n := o.Samples

	grid := []struct {
		name string
		opts su.Options
	}{
		{"rw-EW", su.Options{Warmup: su.WarmupRandomWalk, Method: su.MethodEW, Seed: o.Seed}},
		{"rw-EO", su.Options{Warmup: su.WarmupRandomWalk, Method: su.MethodEO, Seed: o.Seed}},
		{"rw-WJ", su.Options{Warmup: su.WarmupRandomWalk, Method: su.MethodWJ, Seed: o.Seed}},
		{"exact-EW", su.Options{Warmup: su.WarmupExact, Method: su.MethodEW, Seed: o.Seed}},
	}
	auto := su.Options{Warmup: su.WarmupAuto, Seed: o.Seed}

	res := &Result{
		Name:   "adaptive tuning vs hand-tuned configurations (end-to-end ms)",
		Figure: "adaptive",
		Note:   fmt.Sprintf("prepare + %d draws (mutating scenarios: + burst + refresh + %d draws), best of %d rounds", n, n, adaptiveRounds),
		Header: []string{"scenario", "auto_ms", "best_cfg", "best_ms", "worst_cfg", "worst_ms", "auto_vs_best", "worst_vs_auto"},
	}
	for _, sc := range adaptiveScenarios(o) {
		autoMs, err := runAdaptiveCase(sc, auto, n)
		if err != nil {
			return nil, fmt.Errorf("%s/auto: %w", sc.name, err)
		}
		bestName, worstName := "", ""
		bestMs, worstMs := 0.0, 0.0
		for _, cfg := range grid {
			ms, err := runAdaptiveCase(sc, cfg.opts, n)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sc.name, cfg.name, err)
			}
			if bestName == "" || ms < bestMs {
				bestName, bestMs = cfg.name, ms
			}
			if worstName == "" || ms > worstMs {
				worstName, worstMs = cfg.name, ms
			}
		}
		res.Add(sc.name,
			fmt.Sprintf("%.2f", autoMs),
			bestName, fmt.Sprintf("%.2f", bestMs),
			worstName, fmt.Sprintf("%.2f", worstMs),
			fmt.Sprintf("%.2fx", autoMs/bestMs),
			fmt.Sprintf("%.2fx", worstMs/autoMs))
	}
	return res, nil
}

const adaptiveRounds = 3

// adaptiveCase is one scenario: a builder returning a fresh union over
// fresh relations (each configuration must pay its own warm-up over
// unmutated data) plus an optional skew-inverting burst.
type adaptiveCase struct {
	name        string
	adversarial bool
	build       func() (*su.Union, func(), error)
}

// runAdaptiveCase measures one configuration end to end, best of
// adaptiveRounds (fresh data each round — sessions warm over their own
// relations).
func runAdaptiveCase(sc adaptiveCase, opts su.Options, n int) (float64, error) {
	best := 0.0
	for r := 0; r < adaptiveRounds; r++ {
		u, mutate, err := sc.build()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		sess, err := u.Prepare(opts)
		if err != nil {
			return 0, err
		}
		if _, _, err := sess.Sample(n); err != nil {
			return 0, err
		}
		if mutate != nil {
			mutate()
			if err := sess.Refresh(); err != nil {
				return 0, err
			}
			if _, _, err := sess.Sample(n); err != nil {
				return 0, err
			}
		}
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if best == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// benchRel builds a relation from generated rows.
func benchRel(name string, attrs []string, rows [][]int64) *relation.Relation {
	r := relation.New(name, relation.NewSchema(attrs...))
	out := make([]relation.Tuple, len(rows))
	for i, vals := range rows {
		t := make(relation.Tuple, len(vals))
		for j, v := range vals {
			t[j] = relation.Value(v)
		}
		out[i] = t
	}
	r.AppendRows(out)
	return r
}

// zipfChain builds R(A,B) ⋈_B S(B,C) with zipfian degrees: B=base has
// fan-out heavy, the other k-1 B values fan-out 1. Join size is
// heavy + k - 1; the Olken acceptance rate is ~1/k, which is what
// makes rejection subroutines pay ~k tries per draw.
func zipfChain(tag string, k, heavy int, base int64) (*su.Join, []*relation.Relation, error) {
	var rRows, sRows [][]int64
	for b := 0; b < k; b++ {
		rRows = append(rRows, []int64{base + int64(b), base + int64(b)})
	}
	for c := 0; c < heavy; c++ {
		sRows = append(sRows, []int64{base, base + 1000 + int64(c)})
	}
	for b := 1; b < k; b++ {
		sRows = append(sRows, []int64{base + int64(b), base + 500 + int64(b)})
	}
	rels := []*relation.Relation{
		benchRel(tag+"_r", []string{"A", "B"}, rRows),
		benchRel(tag+"_s", []string{"B", "C"}, sRows),
	}
	j, err := su.Chain(tag, rels, []string{"B"})
	return j, rels, err
}

// flatChain builds a constant-fan-out chain: nr R rows all joining ns
// S rows through one shared B value.
func flatChain(tag string, nr, ns int, base int64) (*su.Join, []*relation.Relation, error) {
	var rRows, sRows [][]int64
	for i := 0; i < nr; i++ {
		rRows = append(rRows, []int64{base + int64(i), base})
	}
	for i := 0; i < ns; i++ {
		sRows = append(sRows, []int64{base, base + 1000 + int64(i)})
	}
	rels := []*relation.Relation{
		benchRel(tag+"_r", []string{"A", "B"}, rRows),
		benchRel(tag+"_s", []string{"B", "C"}, sRows),
	}
	j, err := su.Chain(tag, rels, []string{"B"})
	return j, rels, err
}

func adaptiveScenarios(o Options) []adaptiveCase {
	heavy := 4000
	if o.Quick {
		heavy = 1000
	}
	const k = 64
	return []adaptiveCase{
		{
			// Baseline: the workload every fixed configuration was tuned
			// on. Auto must stay within 10% of the best grid entry here —
			// adaptivity is not allowed to tax the easy case.
			name: "uq1",
			build: func() (*su.Union, func(), error) {
				w, err := tpch.UQ1(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
				if err != nil {
					return nil, nil, err
				}
				u, err := su.NewUnion(w.Joins...)
				return u, nil, err
			},
		},
		{
			// Zipfian degrees: one B value holds almost the whole join.
			// EO and WJ accept ~1/k of their tries against the Olken
			// bound; EW absorbs the skew in its weight pass.
			name:        "zipf-degrees",
			adversarial: true,
			build: func() (*su.Union, func(), error) {
				j1, _, err := zipfChain("z", k, heavy, 0)
				if err != nil {
					return nil, nil, err
				}
				j2, _, err := flatChain("f", 4, 32, 100000)
				if err != nil {
					return nil, nil, err
				}
				u, err := su.NewUnion(j1, j2)
				return u, nil, err
			},
		},
		{
			// 1000x share skew with the zipfian degrees concentrated in
			// the heavy join: nearly every union-level draw lands in the
			// join where rejection subroutines bleed.
			name:        "heavy-1000x",
			adversarial: true,
			build: func() (*su.Union, func(), error) {
				j1, _, err := zipfChain("h", k, heavy, 0) // ~heavy results
				if err != nil {
					return nil, nil, err
				}
				j2, _, err := flatChain("l", 2, 2, 100000) // 4 results
				if err != nil {
					return nil, nil, err
				}
				u, err := su.NewUnion(j1, j2)
				return u, nil, err
			},
		},
		{
			// Skew inversion: the union starts zipf-heavy in join 1 and a
			// burst moves the whole heavy fan-out to join 2 mid-session.
			// The plan that was right at warm-up is wrong after Refresh.
			name:        "skew-invert",
			adversarial: true,
			build: func() (*su.Union, func(), error) {
				j1, r1, err := zipfChain("a", k, heavy, 0)
				if err != nil {
					return nil, nil, err
				}
				j2, r2, err := zipfChain("b", k, 1, 100000) // flat until the burst
				if err != nil {
					return nil, nil, err
				}
				u, err := su.NewUnion(j1, j2)
				if err != nil {
					return nil, nil, err
				}
				return u, func() {
					// Delete join 1's heavy fan-out down to one row per B...
					s1 := r1[1]
					live := 0
					for i := 0; i < s1.Len(); i++ {
						if !s1.Live(i) {
							continue
						}
						live++
						if live > k {
							s1.Delete(i)
						}
					}
					// ...and append it to join 2's B=base value.
					s2 := r2[1]
					rows := make([]relation.Tuple, heavy-1)
					for c := 1; c < heavy; c++ {
						rows[c-1] = relation.Tuple{100000, relation.Value(100000 + 1000 + int64(c))}
					}
					s2.AppendRows(rows)
				}, nil
			},
		},
	}
}
