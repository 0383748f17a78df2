// Online demonstrates Algorithm 2: online union sampling with
// backtracking. Parameters start from warm-up walks (or, without them,
// from cheap histogram estimates), wander-join draws refine them on the
// fly, and buffered tuples are backtracked when the estimates shift.
//
// The public API draws through prepared sessions, whose streams are
// independent: every run starts from the shared warm-up estimates but
// drops the warm-up sample pool, so §7's sample reuse never shows here
// (Stats.ReuseAccepted stays 0). Reuse belongs to a single-stream run
// that owns the pool — core.OnlineShared.NewReuseRun, measured by
// `go run ./cmd/unionbench -exp fig6a` and `-exp fig6b`.
//
//	go run ./examples/online
package main

import (
	"fmt"
	"log"

	"sampleunion"
)

func main() {
	u := buildUnion()

	fmt.Println("== online sampling after warm-up walks (WarmupWalks = 800) ==")
	run(u, sampleunion.Options{Online: true, WarmupWalks: 800, Seed: 5})

	fmt.Println()
	fmt.Println("== online sampling without warm-up (pure on-the-fly refinement) ==")
	run(u, sampleunion.Options{Online: true, WarmupWalks: -1, Seed: 5})
}

func run(u *sampleunion.Union, o sampleunion.Options) {
	s, err := u.Prepare(o)
	if err != nil {
		log.Fatal(err)
	}
	tuples, stats, err := s.Sample(3000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("samples: %d from %d walks\n", len(tuples), stats.TotalDraws)
	fmt.Printf("parameter updates (backtracks): %d, tuples dropped by backtracking: %d\n",
		stats.Backtracks, stats.BacktrackDropped)
	fmt.Printf("warm-up %v, accepted %v, rejected %v\n",
		s.WarmupTime(), stats.AcceptTime, stats.RejectTime)
}

// buildUnion makes three overlapping store ⋈ sales joins with skewed
// fanout, the regime where online refinement pays off.
func buildUnion() *sampleunion.Union {
	mk := func(name string, lo, hi int) *sampleunion.Join {
		stores := sampleunion.NewRelation("stores_"+name,
			sampleunion.NewSchema("storekey", "city"))
		sales := sampleunion.NewRelation("sales_"+name,
			sampleunion.NewSchema("salekey", "storekey", "amount"))
		for s := lo; s < hi; s++ {
			stores.AppendValues(sampleunion.Value(s), sampleunion.Value(s%9))
			n := 1 + s%4 // skewed sales per store
			for k := 0; k < n; k++ {
				sales.AppendValues(
					sampleunion.Value(s*10+k),
					sampleunion.Value(s),
					sampleunion.Value(10+(s*k)%90),
				)
			}
		}
		j, err := sampleunion.Chain(name,
			[]*sampleunion.Relation{stores, sales}, []string{"storekey"})
		if err != nil {
			log.Fatal(err)
		}
		return j
	}
	u, err := sampleunion.NewUnion(
		mk("north", 0, 300),
		mk("center", 150, 450),
		mk("south", 300, 600),
	)
	if err != nil {
		log.Fatal(err)
	}
	return u
}
