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
		"count1=0±115.051223/1 count3=48.3333333±77.3494428/3 count7=62.1428571±53.1578781/7 count300=67.1833333±8.19766717/300 sum=3388.65±711.864877/200 avg=578.3±58.4541802/150 g4=26.1±7.59117389/45 g0=22.62±7.27130883/39 g3=20.3±7.02970248/35 g6=19.72±6.96532924/34 g1=19.14±6.89925473/33 g2=19.14±6.89925473/33 g5=17.98±6.76174309/31 where=e79c678918b2a2f4",
		"count1=0±109.534219/1 count3=92.03125±73.6403369/3 count7=59.1629464±50.6088203/7 count300=57.5195313±7.79948021/300 sum=3442.19883±1100.99795/200 avg=668.16±113.57124/150 g0=27.609375±7.44860069/50 g1=22.6396875±7.02922371/41 g5=21.5353125±6.92263077/39 g2=18.2221875±6.56841763/33 g3=17.67±6.50383142/32 g4=15.46125±6.22730435/28 g6=14.9090625±6.15323085/27 where=22ae87b7fc22206c",
	},
	"online": {
		"count1=0±118.701124/1 count3=49.8666667±79.8032872/3 count7=106.857143±53.161351/7 count300=57.6844283±8.32023606/300 sum=3456.10104±735.527853/200 avg=559.133333±53.3950743/150 g2=27.1705916±7.78050217/46 g1=24.2172664±7.51903414/41 g0=22.4452713±7.34582284/38 g3=20.0826112±7.09340765/34 g4=20.0826112±7.09340765/34 g6=20.0826112±7.09340765/34 g5=13.5852958±6.24076785/23 where=4946a849614bff84",
		"count1=0±116.648716/1 count3=0±82.5488806/3 count7=84.007619±53.8959783/7 count300=74.5373585±8.32297338/300 sum=3959.01989±970.176482/200 avg=693.053333±125.85338/150 g3=29.6971431±7.8980905/51 g5=24.4564708±7.46664595/42 g1=20.9626892±7.12052117/36 g2=20.3803923±7.0575416/35 g4=19.7980954±6.99291342/34 g0=16.8866108±6.64280158/29 g6=13.3928292±6.1523532/23 where=588a1abdec1d769e",
	},
	"shard-cover": {
		"count1=0±119.018506/1 count3=50±80.0166649/3 count7=64.2857143±54.9909083/7 count300=68±8.4853843/300 sum=3905.25±777.600619/200 avg=569.64±55.3991255/150 g5=27.6±7.90346648/46 g6=26.4±7.80114837/44 g1=24.6±7.63786617/41 g0=20.4±7.205513/34 g2=19.8±7.13716007/33 g3=18.6±6.99490664/31 g4=12.6±6.14936144/21 where=ef8185ba8955006f",
		"count1=0±119.018506/1 count3=50±80.0166649/3 count7=150±53.1508264/7 count300=62.5±8.47481721/300 sum=3692.25±987.469787/200 avg=634.54±97.0362283/150 g5=27.6±7.90346648/46 g0=25.8±7.74806314/43 g4=24.6±7.63786617/41 g6=19.2±7.06698151/32 g1=18±6.92085926/30 g2=17.4±6.84475701/29 g3=17.4±6.84475701/29 where=08f85b79bb93f287",
	},
	"shard-online": {
		"count1=146.2±116.003371/1 count3=97.4666667±77.9895761/3 count7=41.7714286±51.9531384/7 count300=58.48±8.24048255/300 sum=3207.628±675.855626/200 avg=559.446667±54.1657384/150 g3=29.24±7.88851918/50 g2=25.1464±7.55177887/43 g5=20.468±7.08787933/35 g6=20.468±7.08787933/35 g0=19.2984±6.95635201/33 g1=16.3744±6.5950924/28 g4=15.2048±6.43590864/26 where=9cd92bed07e66f27",
		"count1=142.813333±113.316197/1 count3=47.6044444±76.1829776/3 count7=81.607619±52.3562328/7 count300=60.4576444±8.07387226/300 sum=4549.31873±1609.87029/200 avg=718.32±149.09266/150 g0=26.8489067±7.57173769/47 g1=25.1351467±7.42738668/44 g3=25.1351467±7.42738668/44 g4=19.9938667±6.92369134/35 g5=17.1376±6.58927321/30 g2=14.2813333±6.20561411/25 g6=14.2813333±6.20561411/25 where=a3af4bf1fae455ca",
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
