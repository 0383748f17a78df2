// One testing.B benchmark per table/figure of the paper's evaluation
// (§9). Each iteration regenerates the figure's rows through the
// internal/bench harness; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or `go run ./cmd/unionbench` for readable tables.
// Benchmarks use the harness's Quick option so one iteration stays
// sub-second; the unionbench CLI runs full-scale sweeps.
//
// This file is an external test package: it reaches the library only
// through internal/bench.
package sampleunion_test

import (
	"testing"

	"sampleunion/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := bench.Options{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig4aRatioErrorUQ1 regenerates Fig 4a: |J_i|/|U| ratio error
// of histogram-based+EO on UQ1 across overlap scales.
func BenchmarkFig4aRatioErrorUQ1(b *testing.B) { runExperiment(b, "fig4a") }

// BenchmarkFig4bRatioErrorUQ3 regenerates Fig 4b: the same error on UQ3,
// which exercises the splitting method.
func BenchmarkFig4bRatioErrorUQ3(b *testing.B) { runExperiment(b, "fig4b") }

// BenchmarkFig4cEstimationRuntimeUQ1 regenerates Fig 4c: union-size
// estimation runtime, histogram vs FullJoin, on UQ1.
func BenchmarkFig4cEstimationRuntimeUQ1(b *testing.B) { runExperiment(b, "fig4c") }

// BenchmarkFig4dEstimationRuntimeUQ3 regenerates Fig 4d on UQ3.
func BenchmarkFig4dEstimationRuntimeUQ3(b *testing.B) { runExperiment(b, "fig4d") }

// BenchmarkFig5aRatioErrorMethods regenerates Fig 5a: ratio error of
// histogram+EO vs random-walk estimation on UQ1.
func BenchmarkFig5aRatioErrorMethods(b *testing.B) { runExperiment(b, "fig5a") }

// BenchmarkFig5bTimeVsScale regenerates Fig 5b: SetUnion sampling time
// vs data scale on UQ1.
func BenchmarkFig5bTimeVsScale(b *testing.B) { runExperiment(b, "fig5b") }

// BenchmarkFig5cTimeVsSamplesUQ1 regenerates Fig 5c: sampling time vs
// sample count on UQ1.
func BenchmarkFig5cTimeVsSamplesUQ1(b *testing.B) { runExperiment(b, "fig5c") }

// BenchmarkFig5dTimeVsSamplesUQ2 regenerates Fig 5d on UQ2.
func BenchmarkFig5dTimeVsSamplesUQ2(b *testing.B) { runExperiment(b, "fig5d") }

// BenchmarkFig5eTimeVsSamplesUQ3 regenerates Fig 5e on UQ3.
func BenchmarkFig5eTimeVsSamplesUQ3(b *testing.B) { runExperiment(b, "fig5e") }

// BenchmarkFig5fBreakdownUQ1 regenerates Fig 5f: estimation/accepted/
// rejected time breakdown on UQ1.
func BenchmarkFig5fBreakdownUQ1(b *testing.B) { runExperiment(b, "fig5f") }

// BenchmarkFig5gBreakdownUQ2 regenerates Fig 5g on UQ2.
func BenchmarkFig5gBreakdownUQ2(b *testing.B) { runExperiment(b, "fig5g") }

// BenchmarkFig5hBreakdownUQ3 regenerates Fig 5h on UQ3.
func BenchmarkFig5hBreakdownUQ3(b *testing.B) { runExperiment(b, "fig5h") }

// BenchmarkFig6aReuse regenerates Fig 6a: online sampling time with vs
// without sample reuse.
func BenchmarkFig6aReuse(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6bPhaseCost regenerates Fig 6b: per-sample cost of the
// reuse phase vs the regular phase.
func BenchmarkFig6bPhaseCost(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkThm2CostBound validates Theorem 2's N + N log N total
// sampling cost bound.
func BenchmarkThm2CostBound(b *testing.B) { runExperiment(b, "thm2") }
