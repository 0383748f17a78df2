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
// Refresh. The cover and shard-cover rows, which draw with EW, were
// re-pinned when large weight segments stopped drawing through alias
// tables.
var pinnedAggregates = map[string][2]string{
	"cover": {
		"count1=0±116.489363/1 count3=48.9375±78.3163108/3 count7=62.9196429±53.8223515/7 count300=68.023125±8.30013801/300 sum=3701.14313±729.163653/200 avg=561.406667±54.13389/150 g3=28.77525±7.8767655/49 g0=26.42625±7.68606356/45 g2=21.141±7.18108904/36 g4=19.37925±6.98549542/33 g6=18.792±6.91680815/32 g1=16.443±6.62272232/28 g5=15.85575±6.54394534/27 where=0bcc5f9624061f10",
		"count1=140.546875±111.517861/1 count3=46.8489583±74.973948/3 count7=40.15625±49.944263/7 count300=62.7776042±7.9520205/300 sum=4014.01875±1145.13613/200 avg=604.52±51.2994384/150 g0=26.4228125±7.45157364/47 g1=24.73625±7.30951349/44 g5=20.8009375±6.93388286/37 g2=19.114375±6.75141557/34 g3=17.99±6.62161445/32 g6=16.3034375±6.41339472/29 g4=15.1790625±6.26466457/27 where=f274f1012bcc353d",
	},
	"online": {
		"count1=0±111.401322/1 count3=46.8±74.8955984/3 count7=100.285714±49.89207/7 count300=57.8333115±8.08660494/300 sum=3267.52817±679.050412/200 avg=569±52.0344807/150 g1=27.6942696±7.58086438/49 g2=22.607567±7.14086241/40 g0=20.3468103±6.91132192/36 g3=20.3468103±6.91132192/36 g6=18.6512428±6.72307603/33 g4=16.3904861±6.44763762/29 g5=15.2601078±6.29811337/27 where=a61bdf1795e5c286",
		"count1=0±111.79805/1 count3=0±79.1162067/3 count7=80.5142857±51.6547932/7 count300=67.4065833±8.16382202/300 sum=4706.78921±1345.47972/200 avg=683.893333±126.636649/150 g3=25.6984935±7.59385456/44 g1=24.5303802±7.48921074/42 g2=23.3622668±7.37924309/40 g4=21.6100968±7.20361184/37 g5=17.5217001±6.73695669/30 g0=16.9376434±6.66287665/29 g6=16.3535868±6.58670949/28 where=6cdc000619ce6de6",
	},
	"shard-cover": {
		"count1=0±119.018506/1 count3=0±84.2259121/3 count7=64.2857143±54.9909083/7 count300=65±8.48531798/300 sum=3456.75±731.087208/200 avg=555.686667±56.7057763/150 g2=29.4±8.04778085/49 g1=22.8±7.4619174/38 g5=22.8±7.4619174/38 g0=19.8±7.13716007/33 g3=19.8±7.13716007/33 g6=18±6.92085926/30 g4=17.4±6.84475701/29 where=0ebdf1c3dc3660e9",
		"count1=150±119.018506/1 count3=50±80.0166649/3 count7=107.142857±53.3034936/7 count300=62.5±8.47481721/300 sum=5889.75±2055.89838/200 avg=808.613333±158.375524/150 g2=24.6±7.63786617/41 g4=23.4±7.52204362/39 g6=23.4±7.52204362/39 g5=22.2±7.40025296/37 g0=21±7.27210602/35 g3=19.2±7.06698151/32 g1=16.2±6.68602333/27 where=cabf407e5f0873a7",
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
		{"cover", Options{Warmup: WarmupRandomWalk, WarmupWalks: 200}},
		{"online", Options{Online: true, WarmupWalks: 150}},
		{"shard-cover", Options{Warmup: WarmupExact, Shards: 2}},
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
