package sampleunion

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sampleunion/internal/tpch"
)

// scheduleModes are the preparations whose build phase fans out: the
// zero Options (walks over prebuilt indexes and membership tables, EW
// weight tables side by side), Algorithm 2 and the histogram warm-up
// (column statistics per join), the exact warm-up (one owner count per
// join), and shards (whose build phases run inside the sharded fan-out).
var scheduleModes = []Options{
	{Seed: 5},
	{Seed: 5, Online: true},
	{Seed: 5, Warmup: WarmupHistogram},
	{Seed: 5, Warmup: WarmupExact},
	{Seed: 5, Shards: 2},
}

// scheduleUnion builds UQ3 (a tree join and two chains over split and
// denormalized relations) afresh: every call's relations are unbuilt.
func scheduleUnion(t testing.TB) *Union {
	t.Helper()
	w, err := tpch.UQ3(tpch.Config{SF: 2, Overlap: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(w.Joins...)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sessionOutcome is what a session shows of its preparation: estimates
// and one seeded stream, before and after an append + Refresh.
type sessionOutcome struct {
	est    [2]Estimate
	tuples [2][]Tuple
}

func observeSession(t testing.TB, u *Union, s *Session) (o sessionOutcome) {
	t.Helper()
	for phase := range o.est {
		if phase == 1 {
			orders := u.Joins()[0].Nodes()[2].Rel
			orders.AppendRows([]Tuple{{900001, 3, 1, 77}, {900002, 4, 0, 78}})
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		out, _, err := s.SampleSeeded(257, 41)
		if err != nil {
			t.Fatal(err)
		}
		o.est[phase], o.tuples[phase] = *s.Estimate(), out
	}
	return o
}

// TestPrepareIsScheduleIndependent: the build phase consumes no
// randomness and every structure it forces is a function of the data, so
// how many cores built them cannot show in what the session estimates or
// draws — on one core (everything inline) or four, before a Refresh or
// after one.
func TestPrepareIsScheduleIndependent(t *testing.T) {
	for _, o := range scheduleModes {
		var got [2]sessionOutcome
		for i, procs := range []int{1, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				u := scheduleUnion(t)
				s, err := u.Prepare(o)
				if err != nil {
					t.Fatalf("%+v: %v", o, err)
				}
				got[i] = observeSession(t, u, s)
			}()
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%+v: GOMAXPROCS 1 and 4 prepared different sessions:\n%+v\n%+v", o, got[0].est, got[1].est)
		}
	}
}

// TestConcurrentPrepareSharesBuilds: two goroutines preparing the same
// Union at once enter the index and membership publish paths together —
// by design now, each from its own fan-out — and both sessions must be
// the one a lone Prepare builds. Run under -race.
func TestConcurrentPrepareSharesBuilds(t *testing.T) {
	for _, o := range scheduleModes {
		alone := scheduleUnion(t)
		s, err := alone.Prepare(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		want := observeSession(t, alone, s)

		u := scheduleUnion(t)
		var sessions [2]*Session
		var errs [2]error
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sessions[i], errs[i] = u.Prepare(o)
			}()
		}
		wg.Wait()
		for i, s := range sessions {
			if errs[i] != nil {
				t.Fatalf("%+v: %v", o, errs[i])
			}
			out, _, err := s.SampleSeeded(257, 41)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*s.Estimate(), want.est[0]) || !reflect.DeepEqual(out, want.tuples[0]) {
				t.Errorf("%+v: concurrent Prepare %d differs from a lone one", o, i)
			}
		}
		// The append reaches both sessions; each refreshes to the lone
		// session's second generation.
		if got := observeSession(t, u, sessions[0]); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: concurrent Prepare 0 refreshes differently", o)
		}
		if err := sessions[1].Refresh(); err != nil {
			t.Fatal(err)
		}
		if out, _, _ := sessions[1].SampleSeeded(257, 41); !reflect.DeepEqual(out, want.tuples[1]) {
			t.Errorf("%+v: concurrent Prepare 1 refreshes differently", o)
		}
	}
}
