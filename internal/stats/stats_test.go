package stats

import (
	"math"
	"sync"
	"testing"

	"sampleunion/internal/relation"
)

func fixture() *relation.Relation {
	s := relation.NewSchema("k", "v")
	return relation.MustFromTuples("R", s, []relation.Tuple{
		{1, 10}, {1, 20}, {1, 30}, {2, 10}, {3, 10},
	})
}

func TestBuildAttr(t *testing.T) {
	r := fixture()
	a := BuildAttr(r, 0)
	if a.Attr != "k" {
		t.Errorf("Attr = %q", a.Attr)
	}
	if a.Total != 5 {
		t.Errorf("Total = %d, want 5", a.Total)
	}
	if a.Max != 3 {
		t.Errorf("Max = %d, want 3", a.Max)
	}
	if a.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", a.Distinct())
	}
	if a.Degree(1) != 3 || a.Degree(2) != 1 || a.Degree(9) != 0 {
		t.Errorf("Degree wrong: %d %d %d", a.Degree(1), a.Degree(2), a.Degree(9))
	}
	if got := a.Avg(); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Errorf("Avg = %f", got)
	}
	vs := a.Values()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Errorf("Values = %v", vs)
	}
}

func TestEmptyAttr(t *testing.T) {
	r := relation.New("E", relation.NewSchema("x"))
	a := BuildAttr(r, 0)
	if a.Total != 0 || a.Max != 0 || a.Avg() != 0 || a.Distinct() != 0 {
		t.Errorf("empty stats wrong: %+v", a)
	}
}

func TestBuildRelStats(t *testing.T) {
	rs := Build(fixture())
	if rs.Size != 5 {
		t.Errorf("Size = %d", rs.Size)
	}
	if len(rs.Attrs) != 2 {
		t.Fatalf("Attrs = %d, want 2", len(rs.Attrs))
	}
	if _, err := rs.Attr("k"); err != nil {
		t.Errorf("Attr(k): %v", err)
	}
	if _, err := rs.Attr("nope"); err == nil {
		t.Error("Attr(nope) succeeded")
	}
	if rs.MaxDegree("v") != 3 {
		t.Errorf("MaxDegree(v) = %d, want 3 (value 10 thrice)", rs.MaxDegree("v"))
	}
	if rs.MaxDegree("nope") != 0 {
		t.Errorf("MaxDegree(nope) = %d, want 0", rs.MaxDegree("nope"))
	}
}

// TestBuildUnderMutation: statistics built while another goroutine
// appends and deletes describe one snapshot — every attribute counts the
// rows Size counts, and its histogram sums to them. (Reading Len, Live and
// Value row by row, each its own snapshot load, tore them apart.)
func TestBuildUnderMutation(t *testing.T) {
	r := relation.New("R", relation.NewSchema("k", "v", "w"))
	for i := 0; i < 2000; i++ {
		r.AppendValues(relation.Value(i%7), relation.Value(i%13), relation.Value(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.AppendValues(relation.Value(i%5), relation.Value(i%3), relation.Value(i))
			r.Delete(i * 31 % r.Len())
		}
	}()
	for n := 0; n < 60; n++ {
		rs := Build(r)
		for name, a := range rs.Attrs {
			sum := 0
			for _, c := range a.Freq {
				sum += c
			}
			if a.Total != rs.Size || sum != a.Total {
				t.Fatalf("build %d attr %s: Size %d, Total %d, Σ Freq %d", n, name, rs.Size, a.Total, sum)
			}
		}
	}
	close(stop)
	wg.Wait()
}
