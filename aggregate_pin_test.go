package sampleunion

// Aggregate pinning: what Approx* and SampleWhereSeeded return for a
// fixed (options, seed) is recorded here, so a change to how a batch
// reaches its consumer — copied out of the run, or folded where the run
// wrote it — is shown to change no answer. Regenerate, when a sampling
// decision is meant to change, with
//
//	GOLDEN_PRINT=1 go test -run TestAggregatesPinned -v .

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// pinnedAggregates maps a mode to its two rows: the answers of a newly
// prepared session, and the same calls after mutateDraw's script and a
// Refresh.
var pinnedAggregates = map[string][2]string{
	"cover": {
		"count1=0±116.489363/1 count3=48.9375±78.3163108/3 count7=62.9196429±53.8223515/7 count300=67.53375±8.30214784/300 sum=3488.265±728.263345/200 avg=581.693333±58.6864616/150 g4=25.839±7.63537396/44 g0=23.49±7.4195891/40 g1=21.141±7.18108904/36 g2=21.141±7.18108904/36 g3=19.37925±6.98549542/33 g6=18.792±6.91680815/32 g5=17.03025±6.69930592/29 where=60ae9a79321a5b41",
		"count1=0±111.517861/1 count3=93.6979167±74.973948/3 count7=60.234375±51.5253355/7 count300=59.0296875±7.9434134/300 sum=3819.36133±1299.26534/200 avg=672.7±113.305013/150 g0=28.6715625±7.62533267/51 g1=23.0496875±7.15652148/41 g5=21.363125±6.99166115/38 g2=19.114375±6.75141557/34 g3=18.5521875±6.68737029/33 g6=15.74125±6.34007953/28 g4=14.0546875±6.10713055/25 where=2c4c76394b848514",
	},
	"online": {
		"count1=0±111.401322/1 count3=46.8±74.8955984/3 count7=100.285714±49.89207/7 count300=57.8333115±8.08660494/300 sum=3267.52817±679.050412/200 avg=569±52.0344807/150 g1=27.6942696±7.58086438/49 g2=22.607567±7.14086241/40 g0=20.3468103±6.91132192/36 g3=20.3468103±6.91132192/36 g6=18.6512428±6.72307603/33 g4=16.3904861±6.44763762/29 g5=15.2601078±6.29811337/27 where=a61bdf1795e5c286",
		"count1=0±111.79805/1 count3=0±79.1162067/3 count7=80.5142857±51.6547932/7 count300=67.4065833±8.16382202/300 sum=4706.78921±1345.47972/200 avg=683.893333±126.636649/150 g3=25.6984935±7.59385456/44 g1=24.5303802±7.48921074/42 g2=23.3622668±7.37924309/40 g4=21.6100968±7.20361184/37 g5=17.5217001±6.73695669/30 g0=16.9376434±6.66287665/29 g6=16.3535868±6.58670949/28 where=6cdc000619ce6de6",
	},
	"shard-cover": {
		"count1=0±119.018506/1 count3=50±80.0166649/3 count7=64.2857143±54.9909083/7 count300=68±8.4853843/300 sum=3905.25±777.600619/200 avg=569.64±55.3991255/150 g5=27.6±7.90346648/46 g6=26.4±7.80114837/44 g1=24.6±7.63786617/41 g0=20.4±7.205513/34 g2=19.8±7.13716007/33 g3=18.6±6.99490664/31 g4=12.6±6.14936144/21 where=ef8185ba8955006f",
		"count1=0±119.018506/1 count3=50±80.0166649/3 count7=150±53.1508264/7 count300=62.5±8.47481721/300 sum=3692.25±987.469787/200 avg=634.54±97.0362283/150 g5=27.6±7.90346648/46 g0=25.8±7.74806314/43 g4=24.6±7.63786617/41 g6=19.2±7.06698151/32 g1=18±6.92085926/30 g2=17.4±6.84475701/29 g3=17.4±6.84475701/29 where=08f85b79bb93f287",
	},
	"shard-online": {
		"count1=146.32±116.098586/1 count3=97.5466667±78.0535894/3 count7=83.6114286±53.6417981/7 count300=55.6016±8.21098202/300 sum=3974.0512±759.062889/200 avg=581.02±53.160676/150 g6=24.58176±7.50489719/42 g3=23.99648±7.45048385/41 g2=22.82592±7.33750282/39 g5=22.24064±7.2788517/38 g1=21.07008±7.15699922/36 g0=16.97312±6.67683231/29 g4=14.632±6.35798798/25 where=12255915a6b30ac2",
		"count1=145.826667±115.707147/1 count3=48.6088889±77.7904235/3 count7=83.3295238±53.4609391/7 count300=64.1637333±8.25072727/300 sum=5142.5774±1774.55628/200 avg=736.04±148.941828/150 g0=26.8321067±7.68357447/46 g3=25.0821867±7.5324948/43 g1=24.49888±7.47959363/42 g5=20.4157333±7.06977987/35 g4=19.8324267±7.00503962/34 g6=16.9158933±6.65432066/29 g2=12.24944±5.97827254/21 where=3dbe819f099d0656",
	},
}

// aggregateRow runs one of each aggregate on the session's auto streams,
// then a seeded SampleWhere, and renders the answers. The small counts
// are the online calls most likely to end inside a multi-instance commit,
// which leaves instances buffered behind the batch being folded.
func aggregateRow(t *testing.T, s *Session) string {
	t.Helper()
	var b strings.Builder
	row := func(name string, r AggResult, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s=%.9g±%.9g/%d ", name, r.Value, r.HalfWidth, r.N)
	}
	few := Cmp{Attr: "nationkey", Op: LT, Val: 3}
	for _, n := range []int{1, 3, 7, 300} {
		r, err := s.ApproxCount(few, n)
		row(fmt.Sprintf("count%d", n), r, err)
	}
	r, err := s.ApproxSum("custkey", few, 200)
	row("sum", r, err)
	r, err = s.ApproxAvg("orderkey", True{}, 150)
	row("avg", r, err)
	groups, err := s.ApproxGroupCount("nationkey", 250)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		row(fmt.Sprintf("g%d", g.Key), g.Count, nil)
	}
	out, _, err := s.SampleWhereSeeded(40, Cmp{Attr: "nationkey", Op: LT, Val: 2}, goldenStream)
	if err != nil {
		t.Fatal(err)
	}
	return b.String() + "where=" + digest(out)
}

func TestAggregatesPinned(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") != ""
	for _, m := range []struct {
		name string
		o    Options
	}{
		{"cover", Options{Warmup: WarmupRandomWalk, WarmupWalks: 200, Method: MethodEW}},
		{"online", Options{Online: true, WarmupWalks: 150}},
		{"shard-cover", Options{Warmup: WarmupExact, Method: MethodEW, Shards: 2}},
		{"shard-online", Options{Online: true, WarmupWalks: 150, Shards: 2}},
	} {
		u := goldenUnion(t)
		s := prepareGolden(t, u, m.o)
		var got [2]string
		got[0] = aggregateRow(t, s)
		cust := u.Joins()[0].Nodes()[0].Rel
		ord := u.Joins()[0].Nodes()[1].Rel
		cust.AppendRows([]Tuple{{500, 1}, {501, 2}})
		ord.AppendRows([]Tuple{{5000, 500}, {5001, 500}, {5002, 501}})
		cust.Delete(3)
		ord.Delete(10)
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		got[1] = aggregateRow(t, s)
		if print {
			fmt.Printf("\t%q: {\n\t\t%q,\n\t\t%q,\n\t},\n", m.name, got[0], got[1])
			continue
		}
		for i, when := range []string{"prepared", "refreshed"} {
			if want := pinnedAggregates[m.name][i]; got[i] != want {
				t.Errorf("%s, %s:\n got %s\nwant %s", m.name, when, got[i], want)
			}
		}
	}
}
