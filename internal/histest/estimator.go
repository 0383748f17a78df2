package histest

import (
	"fmt"
	"math/bits"

	"sampleunion/internal/join"
	"sampleunion/internal/overlap"
)

// SizeMode selects the join-size instantiation plugged into the
// framework (§9's EW and EO baselines).
type SizeMode int

const (
	// SizeEO uses the extended Olken upper bound — histogram-only, the
	// default decentralized instantiation.
	SizeEO SizeMode = iota
	// SizeEW uses the exact join size from exact weights — the ground
	// truth instantiation the paper uses as its best case.
	SizeEW
)

func (m SizeMode) String() string {
	if m == SizeEW {
		return "EW"
	}
	return "EO"
}

// Options configure the histogram-based estimator.
type Options struct {
	// Sizes selects how singleton join sizes are produced.
	Sizes SizeMode
	// Degrees selects Theorem 4's factor instantiation (bound vs avg).
	Degrees Mode
	// ForceSplit applies the splitting method even when the joins are
	// already aligned equi-length chains (for ablation experiments).
	ForceSplit bool
	// ZeroScore is the §8.1.2 alternating-score hyper-parameter for
	// template search (0 = paper's base scoring).
	ZeroScore float64
}

// Estimator produces an overlap.Table for a union of joins using column
// statistics only.
type Estimator struct {
	joins    []*join.Join
	opts     Options
	profiles []*Profile
	template []string // nil when the aligned-chain fast path applied
}

// New prepares an estimator: it either takes the §5.1 fast path for
// aligned equi-length chains or finds a shared template and splits every
// join over it (§5.2, §8.1).
func New(joins []*join.Join, opts Options) (*Estimator, error) {
	if len(joins) == 0 {
		return nil, fmt.Errorf("histest: no joins")
	}
	e := &Estimator{joins: joins, opts: opts, profiles: make([]*Profile, len(joins))}
	if !opts.ForceSplit && AlignedChains(joins) {
		for i, j := range joins {
			p, err := ProfileFromChain(j)
			if err != nil {
				return nil, err
			}
			e.profiles[i] = p
		}
		return e, nil
	}
	pres := make([]*Precomputed, len(joins))
	for i, j := range joins {
		pres[i] = Precompute(j)
	}
	attrs, err := CanonicalAttrs(pres)
	if err != nil {
		return nil, err
	}
	tmpl, err := Template(pres, attrs, opts.ZeroScore)
	if err != nil {
		return nil, err
	}
	e.template = tmpl
	for i, j := range joins {
		if e.profiles[i], err = ProfileFromTemplate(j, tmpl, pres[i]); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Estimate fills the overlap table: singleton entries with the selected
// join-size instantiation, every larger subset with the Theorem 4
// bound, normalized to monotone.
func (e *Estimator) Estimate() (*overlap.Table, error) {
	t, err := overlap.NewTable(len(e.joins))
	if err != nil {
		return nil, err
	}
	for i, j := range e.joins {
		switch e.opts.Sizes {
		case SizeEW:
			t.Set(1<<uint(i), float64(j.Count()))
		default:
			t.Set(1<<uint(i), j.OlkenBound())
		}
	}
	full := uint(1)<<uint(len(e.joins)) - 1
	sub := make([]*Profile, 0, len(e.joins))
	for mask := uint(1); mask <= full; mask++ {
		if bits.OnesCount(mask) < 2 {
			continue
		}
		sub = sub[:0]
		for i := range e.joins {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, e.profiles[i])
			}
		}
		b, err := Bound(sub, e.opts.Degrees)
		if err != nil {
			return nil, err
		}
		t.Set(mask, b)
	}
	t.Normalize()
	return t, nil
}
