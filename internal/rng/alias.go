package rng

// Alias is a Walker alias table: after O(n) construction it draws from a
// fixed categorical distribution in O(1) per sample. The union sampler
// uses one to select joins proportionally to cover sizes |J'_j|/|U|, the
// EW join sampler one per large weight segment.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table over weights. Negative weights are
// treated as zero. It returns nil when all weights are zero.
func NewAlias(weights []float64) *Alias {
	prob := make([]float64, len(weights))
	for i, w := range weights {
		if w > 0 {
			prob[i] = w
		}
	}
	return build(prob)
}

// NewAliasCum builds an alias table over the weights whose running sums
// are cum (non-decreasing, so every weight cum[i]-cum[i-1] is >= 0),
// without materializing them first. It returns nil when all weights are
// zero.
func NewAliasCum(cum []int64) *Alias {
	prob := make([]float64, len(cum))
	prev := int64(0)
	for i, c := range cum {
		prob[i] = float64(c - prev)
		prev = c
	}
	return build(prob)
}

// build turns non-negative weights into the table, in place: prob is
// scaled to mean 1 and becomes the table's acceptance column. The small
// and large worklists are the two ends of one slice (an index is on at
// most one of them), popped and pushed in Walker's stack order.
func build(prob []float64) *Alias {
	n := len(prob)
	total := 0.0
	for _, w := range prob {
		total += w
	}
	if n == 0 || total <= 0 {
		return nil
	}
	a := &Alias{prob: prob, alias: make([]int32, n)}
	work := make([]int32, n)
	small, large := 0, n // small is work[:small], large is work[large:], tops inward
	for i, w := range prob {
		prob[i] = w * float64(n) / total
		if prob[i] < 1 {
			work[small] = int32(i)
			small++
		} else {
			large--
			work[large] = int32(i)
		}
	}
	for small > 0 && large < n {
		small--
		s := work[small]
		l := work[large]
		large++
		a.alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			work[small] = l
			small++
		} else {
			large--
			work[large] = l
		}
	}
	for _, i := range work[:small] {
		prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range work[large:] {
		prob[i] = 1
		a.alias[i] = i
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
