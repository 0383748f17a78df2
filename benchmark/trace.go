package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed crossing of a layer boundary. Spans of one replayed
// request share OpID; Parent is the ID of the span one boundary further
// out (the one that contains this work), -1 at the top. N is the
// request size of a ladder's spans (tuples drawn or rows appended).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	OpID    int    `json:"op_id"`
	N       int    `json:"n,omitempty"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans and per-metric samples in memory; nothing is
// written until the run ends.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64), counts: make(map[string]float64)}
}

// sample records one observation of a per-layer metric; the reported
// value is the median of a metric's samples.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// count accumulates an exact counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// rung is one boundary of a ladder: the work as seen from that layer.
type rung struct {
	name  string
	layer string
	fn    func()
}

// ladder runs the rungs of a request of size n in the order given —
// deepest first — and records one span per rung, each parented to the
// next rung out. It
// returns the rung durations in nanoseconds. With rehearse, each rung
// runs once untimed just before its timed run, so every rung finds what
// it touches equally warm in cache; otherwise a rung warms the rows for
// the next one out and differences of rungs go negative. Only rungs
// that may be repeated can be rehearsed.
func (t *tracer) ladder(opID, n int, rehearse bool, rungs []rung) []int64 {
	type timed struct{ start, end time.Time }
	ts := make([]timed, len(rungs))
	for i, r := range rungs {
		if rehearse {
			r.fn()
		}
		ts[i].start = time.Now()
		r.fn()
		ts[i].end = time.Now()
	}
	durs := make([]int64, len(rungs))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range rungs {
		parent := len(t.spans) + 1
		if i == len(rungs)-1 {
			parent = -1
		}
		t.spans[t.recordLocked(r.name, r.layer, opID, parent, ts[i].start, ts[i].end)].N = n
		durs[i] = ts[i].end.Sub(ts[i].start).Nanoseconds()
	}
	return durs
}

// record adds one span measured by the caller and returns its ID.
func (t *tracer) record(name, layer string, opID, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recordLocked(name, layer, opID, parent, start, end)
}

func (t *tracer) recordLocked(name, layer string, opID, parent int, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Layer: layer, OpID: opID, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the
// durations of the spans parented to it: the time a layer adds on top
// of what the layers below it cost. A ladder's self times telescope to
// its top span's duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// ladderResidual walks every ladder (a span with Parent == -1 and the
// chain of single children below it) and returns the largest relative
// gap between the sum of self times and the top span's duration.
func ladderResidual(spans []span) float64 {
	self := selfTimes(spans)
	sum := make(map[int]int64) // top span ID -> sum of self times below and at it
	top := func(id int) int {
		for spans[id].Parent >= 0 {
			id = spans[id].Parent
		}
		return id
	}
	for i := range spans {
		sum[top(i)] += self[i]
	}
	worst := 0.0
	for id, s := range sum {
		d := spans[id].dur()
		if d <= 0 {
			continue
		}
		gap := float64(s-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o666)
}
