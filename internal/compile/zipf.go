package compile

import (
	"math"
	"slices"
	"sync"
)

// Band is a contiguous run of Zipf popularity ranks compiled into one
// aggregate line: every rank in [Lo, Hi) shares the band's per-name rate.
type Band struct {
	// Lo and Hi bound the ranks (0-based, most popular first), half-open.
	Lo, Hi int
	// Mass is the band's total probability mass.
	Mass float64
}

// Count is the number of names in the band.
func (b Band) Count() int { return b.Hi - b.Lo }

// PerName is the probability mass of one representative name in the band.
func (b Band) PerName() float64 { return b.Mass / float64(b.Count()) }

// ZipfBands partitions n Zipf(s)-distributed ranks into bands: the
// headExact most popular ranks get singleton bands (their rates differ
// enough that aggregation would distort the head, which carries most of
// the traffic), and the tail is covered by geometrically widening bands
// whose within-band rate spread is bounded by the width ratio. Memory
// and compute then scale with O(headExact + log n) instead of n, which
// is what lets a 10⁷-name universe compile to a few hundred lines.
//
// The partition costs about 2n math.Pow calls and depends on nothing but
// its arguments, so it is computed once per distinct (n, s, headExact) and
// every caller gets the same slice: the result is shared and must not be
// written.
func ZipfBands(n int, s float64, headExact int) []Band {
	if n < 1 {
		n = 1
	}
	if headExact < 1 {
		headExact = 1
	}
	if headExact > n {
		headExact = n
	}
	key := bandKey{n, s, headExact}
	bandTable.Lock()
	defer bandTable.Unlock()
	bands, ok := bandTable.m[key]
	if !ok {
		if len(bandTable.m) >= bandTableMax {
			clear(bandTable.m)
		}
		// Clipped, so that an append by one holder cannot reach another's.
		bands = slices.Clip(zipfBands(n, s, headExact))
		bandTable.m[key] = bands
	}
	return bands
}

type bandKey struct {
	n         int
	s         float64
	headExact int
}

// bandTableMax bounds the table; a process that compiles more distinct
// universes than this starts it over rather than growing without limit.
const bandTableMax = 16

// bandTable holds the partitions computed so far. The lock is held while
// one is computed, so concurrent compiles of the same universe wait for
// the first instead of each paying for it.
var bandTable = struct {
	sync.Mutex
	m map[bandKey][]Band
}{m: map[bandKey][]Band{}}

// zipfBands computes the partition; its arguments are already clamped.
func zipfBands(n int, s float64, headExact int) []Band {
	weight := func(rank int) float64 { // 0-based rank
		return 1 / math.Pow(float64(rank+1), s)
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	var bands []Band
	sum := func(lo, hi int) float64 {
		m := 0.0
		for i := lo; i < hi; i++ {
			m += weight(i)
		}
		return m / total
	}
	for i := 0; i < headExact; i++ {
		bands = append(bands, Band{Lo: i, Hi: i + 1, Mass: weight(i) / total})
	}
	width := headExact / 2
	if width < 1 {
		width = 1
	}
	for lo := headExact; lo < n; {
		hi := lo + width
		if hi > n {
			hi = n
		}
		bands = append(bands, Band{Lo: lo, Hi: hi, Mass: sum(lo, hi)})
		lo = hi
		width *= 2
	}
	return bands
}
