// Package serve is the sampler's network-facing layer: an HTTP/JSON
// front end that multiplexes many concurrent clients onto few warm
// sampling sessions. Unions are declared by value in every request —
// a built-in TPC-H workload or an inline spec (internal/spec format) —
// and the server maps each distinct (union, options) declaration to
// one prepared Session through a keyed registry: the first request
// pays the warm-up (concurrent first requests coalesce onto a single
// warm-up via singleflight), every later request draws at per-draw
// cost, and cold entries fall out of a bounded LRU.
//
// The request surface mirrors the library: /sample, /sample/where,
// /approx/{count,sum,avg,group}, /estimate, /refresh, and
// /relation/{name}/append for streaming ingest (appends reconcile the
// session incrementally, PR 3's live path). /healthz and /metrics
// expose liveness and per-endpoint latency quantiles. Draw endpoints
// sit behind admission control: past the configured in-flight bound
// the server answers 429 with Retry-After instead of queueing without
// limit.
package serve

import (
	"fmt"
	"strings"

	"sampleunion"
	"sampleunion/internal/relation"
	"sampleunion/internal/spec"
	"sampleunion/internal/tpch"
)

// UnionDecl declares the union a request targets, by value: either a
// built-in TPC-H workload or an inline spec. Two requests whose
// declarations canonicalize equal share one registry entry — and hence
// one warm-up and one live data instance.
type UnionDecl struct {
	// Workload names a built-in workload (UQ1, UQ2, UQ3) generated at
	// SF/Overlap/DataSeed. Mutually exclusive with Spec.
	Workload string  `json:"workload,omitempty"`
	SF       float64 `json:"sf,omitempty"`      // default 0.1 (serving-sized)
	Overlap  float64 `json:"overlap,omitempty"` // default 0.2
	DataSeed int64   `json:"data_seed,omitempty"`

	// Spec is an inline union specification in the internal/spec
	// format; CSV references resolve under the server's data directory.
	Spec string `json:"spec,omitempty"`

	// Options selects the sampling configuration the session is
	// prepared with.
	Options OptionsDecl `json:"options"`
}

// OptionsDecl is sampleunion.Options: the library's option vocabulary
// is the wire's, field for field (its JSON tags are the wire names), and
// Options.Canonical is what validates, defaults and fingerprints it.
// Per-request knobs like n and seed live on the request.
type OptionsDecl = sampleunion.Options

// normalize fills declaration defaults (shared by key computation,
// union construction and the boot manifest). Options it cannot
// canonicalize stay as declared: Key reports that error, and every other
// caller holds a declaration whose Key succeeded.
func (d UnionDecl) normalize() UnionDecl {
	if d.Spec == "" {
		if d.Workload == "" {
			d.Workload = "UQ1"
		}
		if d.SF <= 0 {
			d.SF = 0.1
		}
		if d.Overlap <= 0 {
			d.Overlap = 0.2
		}
		if d.DataSeed == 0 {
			d.DataSeed = 1
		}
	}
	if o, err := d.Options.Canonical(); err == nil {
		d.Options = o
	}
	return d
}

// Key returns the canonical registry key for the declaration: a stable
// hash over the canonicalized spec text (formatting-insensitive) or
// the workload identity, plus the normalized options. Declarations
// with equal keys are served by the same warm session.
func (d UnionDecl) Key() (string, error) {
	// Reject bad options here, not at Prepare: a declaration the library
	// would refuse must never hash to a legitimate one's key and be served
	// from its warm entry.
	o, err := d.Options.Canonical()
	if err != nil {
		return "", err
	}
	d = d.normalize()
	if d.Spec != "" && d.Workload != "" {
		return "", fmt.Errorf("serve: declare either workload or spec, not both")
	}
	// "method=EW" and "oracle=false" name options that no longer exist:
	// data directories on disk are named by this hash, so the text stays.
	optPart := fmt.Sprintf("opts warmup=%s method=EW online=%t walks=%d oracle=false seed=%d shards=%d",
		o.Warmup, o.Online, o.WarmupWalks, o.Seed, o.Shards)
	srcPart := fmt.Sprintf("workload name=%s sf=%g overlap=%g seed=%d",
		d.Workload, d.SF, d.Overlap, d.DataSeed)
	if d.Spec != "" {
		srcPart = "spec"
	}
	return spec.Fingerprint(d.Spec, srcPart, optPart)
}

// build resolves the declaration into an executable union plus its
// relations by name (the append endpoint's targets). dataDir anchors
// CSV references of inline specs; an empty dataDir rejects spec
// declarations.
func (d UnionDecl) build(dataDir string) (*sampleunion.Union, map[string]*relation.Relation, *relation.Dictionary, error) {
	d = d.normalize()
	if d.Spec != "" {
		if d.Workload != "" {
			return nil, nil, nil, fmt.Errorf("serve: declare either workload or spec, not both")
		}
		if dataDir == "" {
			return nil, nil, nil, fmt.Errorf("serve: inline specs need the server started with a data directory")
		}
		// Each spec entry interns its string columns through its own
		// dictionary; /metrics reports its size alongside the storage
		// gauges.
		dict := relation.NewDictionary()
		su, err := spec.Parse(strings.NewReader(d.Spec), spec.DirLoaderDict(dataDir, dict))
		if err != nil {
			return nil, nil, nil, err
		}
		u, err := sampleunion.NewUnion(su.Joins...)
		if err != nil {
			return nil, nil, nil, err
		}
		return u, su.Relations, dict, nil
	}
	w, err := tpch.ByName(d.Workload, tpch.Config{SF: d.SF, Overlap: d.Overlap, Seed: d.DataSeed})
	if err != nil {
		return nil, nil, nil, err
	}
	u, err := sampleunion.NewUnion(w.Joins...)
	if err != nil {
		return nil, nil, nil, err
	}
	rels := make(map[string]*relation.Relation)
	for _, j := range w.Joins {
		for _, n := range j.Nodes() {
			rels[n.Rel.Name()] = n.Rel
		}
	}
	return u, rels, nil, nil
}

// PredDecl is the JSON form of a selection predicate: exactly one
// field set per node. The zero value (or an absent "where") means
// true.
type PredDecl struct {
	Cmp  *CmpDecl   `json:"cmp,omitempty"`
	And  []PredDecl `json:"and,omitempty"`
	Or   []PredDecl `json:"or,omitempty"`
	Not  *PredDecl  `json:"not,omitempty"`
	In   *InDecl    `json:"in,omitempty"`
	True bool       `json:"true,omitempty"`
}

// CmpDecl compares an attribute against a constant.
type CmpDecl struct {
	Attr  string `json:"attr"`
	Op    string `json:"op"` // = != < <= > >=
	Value int64  `json:"value"`
}

// InDecl tests membership of an attribute in a value set.
type InDecl struct {
	Attr   string  `json:"attr"`
	Values []int64 `json:"values"`
}

// toPredicate compiles the declaration. A zero-valued node is true, so
// requests may simply omit "where".
func (p PredDecl) toPredicate() (relation.Predicate, error) {
	set := 0
	if p.Cmp != nil {
		set++
	}
	if len(p.And) > 0 {
		set++
	}
	if len(p.Or) > 0 {
		set++
	}
	if p.Not != nil {
		set++
	}
	if p.In != nil {
		set++
	}
	if p.True {
		set++
	}
	if set == 0 {
		return relation.True{}, nil
	}
	if set > 1 {
		return nil, fmt.Errorf("serve: predicate node must set exactly one of cmp/and/or/not/in/true")
	}
	switch {
	case p.Cmp != nil:
		op, err := relation.ParseCmpOp(p.Cmp.Op)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		return relation.Cmp{Attr: p.Cmp.Attr, Op: op, Val: relation.Value(p.Cmp.Value)}, nil
	case len(p.And) > 0:
		sub, err := toPredicates(p.And)
		if err != nil {
			return nil, err
		}
		return relation.And(sub), nil
	case len(p.Or) > 0:
		sub, err := toPredicates(p.Or)
		if err != nil {
			return nil, err
		}
		return relation.Or(sub), nil
	case p.Not != nil:
		inner, err := p.Not.toPredicate()
		if err != nil {
			return nil, err
		}
		return relation.Not{P: inner}, nil
	case p.In != nil:
		vals := make([]relation.Value, len(p.In.Values))
		for i, v := range p.In.Values {
			vals[i] = relation.Value(v)
		}
		return relation.NewIn(p.In.Attr, vals...), nil
	}
	return relation.True{}, nil
}

func toPredicates(decls []PredDecl) ([]relation.Predicate, error) {
	out := make([]relation.Predicate, len(decls))
	for i, d := range decls {
		p, err := d.toPredicate()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
