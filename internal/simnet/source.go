package simnet

import "math/rand"

// source.go is math/rand's seeded generator, materialised lazily. The
// simulation seeds one stream per flow, per resolver and per vantage point
// and draws a handful of numbers from most of them; rand.NewSource fills a
// 607-word register (≈ 5 KB, ≈ 11 µs) before the first draw. NewSource
// yields the same stream and computes only the register words a draw reads.
//
// The stdlib generator is an additive lagged-Fibonacci register: draw n adds
// words feed and tap, stores the sum at feed and returns it, with feed and
// tap starting at 334 and 0 and stepping down (mod 607) before each draw.
// Word i of a fresh register is three consecutive states of the Lehmer
// sequence x ← 48271·x mod (2³¹−1), the ones at positions 21+3i … 23+3i past
// the seed, packed into 64 bits and XORed with a constant. A Lehmer state k
// steps ahead is seed·48271ᵏ mod (2³¹−1), so with 48271^(21+3i) tabulated any
// word costs three modular multiplications; and the first 273 draws read only
// words no draw has written (feed walks 333 … 61, tap 606 … 334), so draw n
// of them is word(333−n) + word(606−n) and keeps no state but n.

const (
	regLen    = 607             // register words
	regTap    = 273             // distance between the two summed words
	firstFeed = regLen - regTap // feed before the first draw; tap starts at 0

	lehmerM    = 1<<31 - 1
	lehmerA    = 48271
	lehmerSkip = 21       // Lehmer steps from the seed to word 0's first state
	lehmerZero = 89482311 // the seed the stdlib substitutes for one ≡ 0 (mod M)

	// promoteAt is the draw at which a source builds its register. Measured
	// on the 2-vCPU 2.1 GHz reference box (BenchmarkSourceDraw,
	// BenchmarkSourcePromote): a lazy draw costs ≈ 13 ns against ≈ 3 ns
	// from a register, and building one ≈ 4 µs with its 5,376 B allocation
	// (the replay of 273 draws, ≈ 0.8 µs more, aside), so laziness stays
	// cheaper for ≈ 400 draws — past the 273 it can serve. The threshold is
	// therefore the structural one: a source promotes when the next draw
	// would read a written word. A stream that lives on overpays ≈ 2.7 µs,
	// once; of the 50,445 sources one sim_repro pass seeds (seed 41), 165
	// reach 64 draws and 63 reach 273, and the mean is 7.
	promoteAt = regTap
)

// seedTable holds, per register word, the jump multiplier 48271^(21+3i) mod
// (2³¹−1) and the stdlib's additive constant (its rngCooked array).
var seedTable = buildSeedTable()

type seedEntry struct {
	cooked int64
	jump   uint32
}

// buildSeedTable computes the jump multipliers and recovers the constants
// from a stdlib source instead of copying them: the first 607 draws o of a
// source determine its initial register v, and v XOR the seed-derived words
// is the constant array. Draws 334 … 606 store into pristine words 606 … 334
// after adding a word written 273 draws earlier, draws 273 … 333 do the same
// for words 60 … 0, and draws 0 … 272 add two pristine words, the upper of
// which is known by then. So the table is right for whichever toolchain
// built the program, and TestSourceMatchesStdlib checks the result.
func buildSeedTable() (t [regLen]seedEntry) {
	j := uint64(1)
	for i := 0; i < lehmerSkip; i++ {
		j = mulmod(j, lehmerA)
	}
	for i := range t {
		t[i].jump = uint32(j)
		j = mulmod(mulmod(mulmod(j, lehmerA), lehmerA), lehmerA)
	}

	const probeSeed = 1 // any seed: the constants do not depend on it
	std := rand.NewSource(probeSeed).(rand.Source64)
	var o, v [regLen]int64
	for n := range o {
		o[n] = int64(std.Uint64())
	}
	for n := firstFeed; n < regLen; n++ {
		v[firstFeed+regLen-1-n] = o[n] - o[n-regTap]
	}
	for n := regTap; n < firstFeed; n++ {
		v[firstFeed-1-n] = o[n] - o[n-regTap]
	}
	for n := 0; n < regTap; n++ {
		v[firstFeed-1-n] = o[n] - v[regLen-1-n]
	}
	seed := lehmerSeed(probeSeed)
	for i := range t {
		t[i].cooked = v[i] ^ seedWord(seed, t[i].jump)
	}
	return t
}

// mulmod is a·b mod (2³¹−1) for a, b below 2³¹.
func mulmod(a, b uint64) uint64 { return a * b % lehmerM }

// lehmerSeed folds a seed into the Lehmer generator's range [1, 2³¹−2] as
// the stdlib does.
func lehmerSeed(seed int64) uint32 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = lehmerZero
	}
	return uint32(seed)
}

// seedWord packs the three Lehmer states a register word is seeded from,
// given the multiplier that jumps from the seed to the first of them.
func seedWord(seed, jump uint32) int64 {
	x := mulmod(uint64(seed), uint64(jump))
	u := int64(x) << 40
	x = mulmod(x, lehmerA)
	u ^= int64(x) << 20
	x = mulmod(x, lehmerA)
	return u ^ int64(x)
}

// source implements rand.Source64 with the output of rand.NewSource(seed).
// Its first promoteAt draws are computed from the seed; the draw after that
// builds the register, replays those draws into it, and from then on the
// source is the stdlib algorithm verbatim.
type source struct {
	seed uint32    // Lehmer seed, in [1, 2³¹−2]
	n    int32     // draws taken so far, while reg is nil
	reg  *register // nil until draw promoteAt
}

// register is the stdlib generator's state.
type register struct {
	tap, feed int
	vec       [regLen]int64
}

// NewSource returns a source whose draws equal rand.NewSource(seed)'s, draw
// for draw, at a cost proportional to the draws taken: 16 bytes and no
// seeding work up front. Like the stdlib's, it is not safe for concurrent
// use.
func NewSource(seed int64) rand.Source64 {
	s := new(source)
	s.Seed(seed)
	return s
}

// word is word i of the freshly seeded register.
func (s *source) word(i int) int64 {
	e := &seedTable[i]
	return seedWord(s.seed, e.jump) ^ e.cooked
}

// Seed restarts the stream at seed, lazy again; every source starts here.
func (s *source) Seed(seed int64) { *s = source{seed: lehmerSeed(seed)} }

func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *source) Uint64() uint64 {
	if s.reg == nil {
		if n := int(s.n); n < promoteAt {
			s.n++
			return uint64(s.word(firstFeed-1-n) + s.word(regLen-1-n))
		}
		s.promote()
	}
	return s.reg.next()
}

// promote builds the seeded register and advances it past the draws
// already handed out.
func (s *source) promote() {
	r := &register{feed: firstFeed}
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for i := int32(0); i < s.n; i++ {
		r.next()
	}
	s.reg = r
}

func (r *register) next() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += regLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += regLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
