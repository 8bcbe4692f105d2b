package workload

// Alias is a Walker/Vose alias table: O(n) to build, O(1) per draw, for
// sampling from an arbitrary discrete distribution. The generator's Zipf
// name draw uses it in place of the former O(log n) binary search over the
// cumulative distribution — at planet-scale name populations (10⁵–10⁷
// ranks) the draw is the workload generator's hot path.
type Alias struct {
	// prob[i] is the probability that bucket i returns itself rather than
	// its alias; alias[i] is the overflow target.
	prob  []float64
	alias []int32
}

// NewAlias builds the table from non-negative weights (they need not sum
// to 1). An empty or all-zero weight vector yields a single-outcome table.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		return &Alias{prob: []float64{1}, alias: []int32{0}}
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	if total <= 0 {
		for i := range a.prob {
			a.prob[i] = 1
			a.alias[i] = int32(i)
		}
		return a
	}
	// Scale weights to mean 1, then split buckets into small (< 1) and
	// large (≥ 1) worklists and pair them off.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Numerical leftovers are all (within rounding) exactly 1.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = int32(i)
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = int32(i)
	}
	return a
}

// Draw maps one uniform variate in [0,1) to an outcome index. It splits u
// into a bucket index and a coin, so one RNG call per draw suffices — the
// same RNG consumption as the binary-search draw it replaced, which keeps
// interleaved gap/name streams reproducible across the swap.
func (a *Alias) Draw(u float64) int {
	n := len(a.prob)
	scaled := u * float64(n)
	i := int(scaled)
	if i >= n { // u rounding up to 1.0 × n
		i = n - 1
	}
	if scaled-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
