package rng

// Alias is a Walker alias table: after O(n) construction it draws from a
// fixed categorical distribution in O(1) per sample. The union sampler
// uses one to select joins proportionally to cover sizes |J'_j|/|U|, the
// sharded one to select shards.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table over weights. Negative weights are
// treated as zero. It returns nil when all weights are zero. The weights
// are copied and scaled to mean 1 into the table's acceptance column. The
// small and large worklists are stacks linked through the alias column —
// an index is on at most one of them, and its alias is written only once
// it has left both — popped and pushed in Walker's stack order. So a
// table allocates its two columns and nothing else.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	prob := make([]float64, n)
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			prob[i] = w
			total += w
		}
	}
	if n == 0 || total <= 0 {
		return nil
	}
	a := &Alias{prob: prob, alias: make([]int32, n)}
	next := a.alias // next[i]: the index below i on its stack, or -1
	small, large := int32(-1), int32(-1)
	push := func(i int32) {
		if prob[i] < 1 {
			next[i], small = small, i
		} else {
			next[i], large = large, i
		}
	}
	for i, w := range prob {
		prob[i] = w * float64(n) / total
		push(int32(i))
	}
	for small >= 0 && large >= 0 {
		s, l := small, large
		small, large = next[s], next[l]
		a.alias[s] = l
		prob[l] -= 1 - prob[s]
		push(l)
	}
	for _, top := range []int32{small, large} {
		for i := top; i >= 0; {
			below := next[i]
			prob[i], a.alias[i] = 1, i
			i = below
		}
	}
	return a
}

// Draw samples an index from the table's distribution.
func (a *Alias) Draw(g *RNG) int {
	i := g.Intn(len(a.prob))
	if g.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Len reports the number of categories.
func (a *Alias) Len() int { return len(a.prob) }
