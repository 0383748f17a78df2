package main

import (
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"sampleunion/internal/relation"
)

// schedule returns round r's fixed op list. Op i runs on worker
// i mod workers; within a worker every auxEvery-th op is the aux op,
// the workers' aux slots staggered so neither carries them all. Seeds
// derive from (workload seed, r, i): every run of one -seed does
// identical work.
func schedule(fx *fixture, seed int64, r int) []op {
	ops := make([]op, fx.opsPerRound)
	for i := range ops {
		w, k := i%workers, i/workers
		kind := opPrimary
		if (k+1+w*fx.auxEvery/workers)%fx.auxEvery == 0 {
			kind = opAux
		}
		ops[i] = op{kind: kind, seed: deriveSeed(seed, int64(r), int64(i)), serial: r*fx.opsPerRound + i}
	}
	return ops
}

// scheduleDigest fingerprints a schedule (kinds, seeds, serials).
func scheduleDigest(ops []op) uint64 {
	h := digestSeed
	for _, o := range ops {
		h = digestStep(h, uint64(o.kind))
		h = digestStep(h, uint64(o.seed))
		h = digestStep(h, uint64(o.serial))
	}
	return h
}

// roundResult is everything one round measured.
type roundResult struct {
	wall      time.Duration
	cpu       time.Duration // getrusage user+sys over the round
	mallocs   uint64        // heap objects allocated over the round, load generator included
	allocated uint64        // heap bytes allocated over the round
	primMs    []float64     // primary-op latencies, ascending
	auxMs     []float64     // aux-op latencies, ascending
	tuples    int           // delivered by primary ops
	attempted [2]int        // by opKind
	failed    [2]int
	shed      int    // HTTP 429 + 503
	digest    uint64 // order-independent sum of per-op digests
	firstErr  error
	out       []relation.Tuple // drawn tuples, when kept
}

func (r *roundResult) stats() roundStats {
	ops := float64(r.attempted[opPrimary] + r.attempted[opAux])
	return roundStats{
		tuplesPerS:   float64(r.tuples) / r.wall.Seconds(),
		drawP50:      quantile(r.primMs, 0.50),
		drawP95:      quantile(r.primMs, 0.95),
		auxP50:       quantile(r.auxMs, 0.50),
		cpuMsPerOp:   float64(r.cpu.Nanoseconds()) / 1e6 / ops,
		allocsPerOp:  float64(r.mallocs) / ops,
		allocKBPerOp: float64(r.allocated) / 1024 / ops,
	}
}

// rusage reads this process's resource usage; a failing getrusage is
// reported as zero usage, which the never-zero metrics expose.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero usage on failure, see above
	return ru
}

// cpuTime is user+sys CPU time consumed so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// hook observes ops from inside a round; the traced run replays ladders
// from it. It runs on the worker's goroutine, outside the op's timing.
type hook func(w *worker, o op, res opResult)

// runRound executes one round: workers closed-loop clients started
// together, each timing its own ops; the round's wall time runs from
// the common start to the last worker's finish. The first keepTuples
// drawn tuples are retained for the output checks.
func runRound(e *env, ops []op, keepTuples int, after hook) roundResult {
	type sample struct {
		kind opKind
		ms   float64
	}
	type partial struct {
		samples []sample
		res     roundResult
	}
	parts := make([]partial, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			p := &parts[wi]
			p.samples = make([]sample, 0, len(ops)/workers+1)
			w := newWorker(e)
			budget := keepTuples / workers
			<-start
			for i := wi; i < len(ops); i += workers {
				o := ops[i]
				w.keep = budget > 0
				t0 := time.Now()
				res := w.exec(o)
				d := time.Since(t0)
				p.res.attempted[o.kind]++
				if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
					p.res.shed++
				}
				if res.err != nil {
					// A failed op has no latency sample.
					p.res.failed[o.kind]++
					if p.res.firstErr == nil {
						p.res.firstErr = res.err
					}
				} else {
					p.samples = append(p.samples, sample{o.kind, float64(d.Nanoseconds()) / 1e6})
					if o.kind == opPrimary {
						p.res.tuples += res.tuples
					}
					// While appends interleave with draws, which refresh a
					// draw sees depends on timing; there only the appended
					// rows enter the digest, so that it repeats.
					if e.fx.aux != auxAppend || o.kind == opAux {
						p.res.digest += digestStep(uint64(o.seed), res.digest)
					}
					p.res.out = append(p.res.out, res.out...)
					budget -= len(res.out)
				}
				if after != nil {
					after(w, o, res)
				}
			}
		}(wi)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	close(start)
	wg.Wait()
	out := roundResult{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	out.mallocs, out.allocated = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for i := range parts {
		p := &parts[i]
		for _, s := range p.samples {
			if s.kind == opPrimary {
				out.primMs = append(out.primMs, s.ms)
			} else {
				out.auxMs = append(out.auxMs, s.ms)
			}
		}
		for k := range out.attempted {
			out.attempted[k] += p.res.attempted[k]
			out.failed[k] += p.res.failed[k]
		}
		out.tuples += p.res.tuples
		out.shed += p.res.shed
		out.digest += p.res.digest
		out.out = append(out.out, p.res.out...)
		if out.firstErr == nil {
			out.firstErr = p.res.firstErr
		}
	}
	sort.Float64s(out.primMs)
	sort.Float64s(out.auxMs)
	if e.fx.aux == auxAppend {
		// Every aux op is expected to ack auxN rows (the expected failed
		// share is 0; a failed append then also fails the reopen check).
		for _, o := range ops {
			if o.kind == opAux {
				e.acked[e.appendTarget(o.serial)] += e.fx.auxN
			}
		}
	}
	return out
}

// betweenRounds settles the heap so one round's garbage is not
// collected on the next round's clock.
func betweenRounds() { runtime.GC() }
