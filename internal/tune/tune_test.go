package tune

import (
	"math"
	"testing"
)

func TestBuildMethodFromPrior(t *testing.T) {
	stats := []JoinStats{
		{Walks: 64, Size: 1000, RelHalfWidth: 0.05, OlkenBound: 2000, Rows: 100}, // accept 0.5 -> EO
		{Walks: 64, Size: 1000, RelHalfWidth: 0.05, OlkenBound: 1e6, Rows: 100},  // accept 1e-3 -> EW
		{Walks: 64, Size: 1000, RelHalfWidth: 0.05, OlkenBound: 1e6, Rows: 1e9},  // accept 1e-3, setup too big -> WJ
		{Walks: 64, Size: 1000, RelHalfWidth: 0.05, OlkenBound: 0, Rows: 100},    // no bound -> EO
	}
	p := Build(Config{}, stats)
	want := []Method{MethodEO, MethodEW, MethodWJ, MethodEO}
	for i, w := range want {
		if p.Joins[i].Method != w {
			t.Errorf("join %d: method %v, want %v", i, p.Joins[i].Method, w)
		}
	}
}

func TestBuildMethodFromFeedback(t *testing.T) {
	// The prior says EO is fine (bound barely above size), but observed
	// rejection says 99% of attempts die: feedback wins, switch to EW.
	stats := []JoinStats{{
		Walks: 64, Size: 1000, RelHalfWidth: 0.05, OlkenBound: 2000, Rows: 100,
		Draws: 10000, Rejected: 9900,
	}}
	p := Build(Config{}, stats)
	if p.Joins[0].Method != MethodEW {
		t.Errorf("method %v, want EW after 99%% observed rejection", p.Joins[0].Method)
	}
	if p.MaxDrawsPerSelection != 256 {
		t.Errorf("EW join must not inflate the slice cap: got %d", p.MaxDrawsPerSelection)
	}
}

func TestBuildEscalation(t *testing.T) {
	stats := []JoinStats{
		{Walks: 128, Size: 1000, RelHalfWidth: 0.5, OlkenBound: 1500},               // wide tree -> exact
		{Walks: 128, Size: 1000, RelHalfWidth: 0.5, OlkenBound: 1500, Cyclic: true}, // wide cyclic -> more walks
		{Walks: 128, Size: 1000, RelHalfWidth: 0.02, OlkenBound: 1500},              // converged -> neither
		{Walks: 128, Size: 1000, RelHalfWidth: 0.5, OlkenBound: 1500, Exact: true},  // already exact
	}
	p := Build(Config{WalkBudget: 100, MaxWalkBudget: 400}, stats)
	if !p.Joins[0].Exact {
		t.Error("wide tree join did not escalate to exact")
	}
	if p.Joins[1].Exact {
		t.Error("cyclic join escalated to exact (exponential)")
	}
	if got := p.Joins[1].WalkBudget; got != 256 {
		t.Errorf("cyclic wide join walk budget = %d, want 2x its 128 walks", got)
	}
	if p.Joins[2].Exact || p.Joins[2].WalkBudget != 100 {
		t.Errorf("converged join escalated: %+v", p.Joins[2])
	}
	if p.Joins[3].Exact {
		t.Error("already-exact join re-escalated")
	}
}

func TestBuildWalkBudgetCap(t *testing.T) {
	stats := []JoinStats{{Walks: 1000, Size: 10, RelHalfWidth: math.Inf(1), Cyclic: true}}
	p := Build(Config{MaxWalkBudget: 512}, stats)
	if p.Joins[0].WalkBudget != 512 {
		t.Errorf("walk budget %d, want capped at 512", p.Joins[0].WalkBudget)
	}
}

func TestBuildAliasThreshold(t *testing.T) {
	stats := []JoinStats{
		{Walks: 64, Size: 1000, RelHalfWidth: 0.05, Share: 0.9},
		{Walks: 64, Size: 1000, RelHalfWidth: 0.05, Share: 0.09},
		{Walks: 64, Size: 1000, RelHalfWidth: 0.05, Share: 0.001},
	}
	p := Build(Config{}, stats)
	if got := p.Joins[0].AliasThreshold; got >= DefaultAliasThreshold {
		t.Errorf("heavy join threshold %d, want aggressive (< %d)", got, DefaultAliasThreshold)
	}
	if got := p.Joins[1].AliasThreshold; got != DefaultAliasThreshold {
		t.Errorf("middling join threshold %d, want default", got)
	}
	if got := p.Joins[2].AliasThreshold; got != NeverAlias {
		t.Errorf("light join threshold %d, want NeverAlias", got)
	}
}

func TestBuildSliceCap(t *testing.T) {
	// Acceptance 1/16 exactly stays EO and needs 16 tries per accept on
	// average: the slice cap must grow to 16*16 = 256 -> stays at floor.
	p := Build(Config{}, []JoinStats{{Walks: 64, Size: 1, OlkenBound: 16, RelHalfWidth: 0.05}})
	if p.MaxDrawsPerSelection != 256 {
		t.Errorf("cap %d, want 256", p.MaxDrawsPerSelection)
	}
	// Acceptance 1/100 under a huge-rows join goes WJ; cap scales to
	// 16*100 = 1600.
	p = Build(Config{}, []JoinStats{{Walks: 64, Size: 1, OlkenBound: 100, Rows: 1e9, RelHalfWidth: 0.05}})
	if p.MaxDrawsPerSelection != 1600 {
		t.Errorf("cap %d, want 1600", p.MaxDrawsPerSelection)
	}
	// And never past 4096.
	p = Build(Config{}, []JoinStats{{Walks: 64, Size: 1, OlkenBound: 1e6, Rows: 1e9, RelHalfWidth: 0.05}})
	if p.MaxDrawsPerSelection != 4096 {
		t.Errorf("cap %d, want clamped to 4096", p.MaxDrawsPerSelection)
	}
}

func TestBuildDeterministic(t *testing.T) {
	stats := []JoinStats{
		{Walks: 64, Size: 1000, RelHalfWidth: 0.3, OlkenBound: 1e6, Rows: 100, Share: 0.5},
		{Walks: 64, Size: 10, RelHalfWidth: 0.01, OlkenBound: 20, Rows: 100, Share: 0.5, Cyclic: true},
	}
	a := Build(Config{}, stats)
	b := Build(Config{}, stats)
	if len(a.Joins) != len(b.Joins) || a.MaxDrawsPerSelection != b.MaxDrawsPerSelection {
		t.Fatal("plans differ across identical inputs")
	}
	for i := range a.Joins {
		if a.Joins[i] != b.Joins[i] {
			t.Fatalf("join %d plan differs: %+v vs %+v", i, a.Joins[i], b.Joins[i])
		}
	}
}
