package join

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the goroutines FanOut calls have running, process-wide.
var helpers atomic.Int32

// FanOut runs f(0) … f(n-1), the caller taking indexes beside up to
// workers-1 helper goroutines (workers <= 0: as many as there are cores).
// It is the repository's only concurrency primitive for builds and
// sharded draws. Helpers across all calls in flight stay under
// runtime.GOMAXPROCS(0), so a fan-out entered from inside another — a
// shard's build phase inside the sharded warm-up — finds the cores taken
// and runs inline, and on one core everything does. Which goroutine ran
// which index must therefore not matter: every f(i) writes only its own
// slot i plus structures that publish exactly once behind their own lock
// (relation indexes, membership tables), and draws randomness from
// nothing shared.
func FanOut(workers, n int, f func(i int)) {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > procs {
		workers = procs
	}
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	for k := 1; k < workers && k < n; k++ {
		if int(helpers.Add(1)) >= procs {
			helpers.Add(-1)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
}
