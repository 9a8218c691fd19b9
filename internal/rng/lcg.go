// Package rng provides the random number generators the workloads need:
//
//   - the NAS Parallel Benchmarks' 46-bit linear congruential generator
//     (x_{k+1} = 5^13 * x_k mod 2^46), spec-exact including the power-law
//     jump-ahead that lets EP partition its stream across threads; and
//   - a splittable SplitMix64 counter generator for workloads that need a
//     cheap vectorizable source (the paper's Monte-Carlo discussion: "a
//     manual call to a vectorized random number generator is still
//     necessary").
package rng

// NPB LCG constants (NPB 3.x randdp): a = 5^13, modulus 2^46.
const (
	lcgA    = 1220703125 // 5^13
	lcgMod  = 1 << 46
	lcgMask = lcgMod - 1
	// R46 converts a 46-bit integer state to a double in (0, 1).
	r46 = 1.0 / (1 << 46)
	// DefaultSeed is the EP benchmark's seed, 271828183 (from e).
	DefaultSeed = 271828183
)

// LCG is the NPB 46-bit multiplicative linear congruential generator.
// The zero value is invalid; use NewLCG.
type LCG struct {
	state uint64
}

// NewLCG returns a generator seeded with the given odd seed
// (NPB uses 271828183 for EP and 314159265 for CG/makea).
func NewLCG(seed uint64) *LCG {
	return &LCG{state: seed & lcgMask}
}

// mul46 computes (a*b) mod 2^46. The uint64 product wraps mod 2^64,
// and 2^46 divides 2^64, so its low 46 bits are exact — one multiply
// where NPB's double-precision randlc needs a 23+23-bit split.
func mul46(a, b uint64) uint64 {
	return a * b & lcgMask
}

// Powers of the multiplier for Fill's four interleaved sub-streams.
const (
	lcgA2 = lcgA * lcgA % lcgMod
	lcgA3 = lcgA2 * lcgA % lcgMod
	lcgA4 = lcgA3 * lcgA % lcgMod
)

// uniform converts a 46-bit state to a double in (0, 1). The state fits
// in an int64, whose conversion is one instruction; the value is the
// same as float64(s).
func uniform(s uint64) float64 { return float64(int64(s)) * r46 }

// Next advances the state once and returns a uniform double in (0, 1),
// exactly NPB's randlc.
func (g *LCG) Next() float64 {
	g.state = mul46(lcgA, g.state)
	return uniform(g.state)
}

// Fill writes len(dst) successive uniforms into dst and leaves the
// generator where len(dst) calls to Next would — NPB's vranlc. Each
// group of four is computed from the state before it with multipliers
// a, a^2, a^3 and a^4, so the four multiplies are independent and the
// serial chain is one multiply per four values instead of one per value.
func (g *LCG) Fill(dst []float64) {
	s := g.state
	for ; len(dst) >= 4; dst = dst[4:] {
		dst[0] = uniform(mul46(lcgA, s))
		dst[1] = uniform(mul46(lcgA2, s))
		dst[2] = uniform(mul46(lcgA3, s))
		s = mul46(lcgA4, s)
		dst[3] = uniform(s)
	}
	for i := range dst {
		s = mul46(lcgA, s)
		dst[i] = uniform(s)
	}
	g.state = s
}

// State returns the current 46-bit state.
func (g *LCG) State() uint64 { return g.state }

// Skip advances the generator by n steps in O(log n) using repeated
// squaring of the multiplier — NPB EP's mechanism for giving each
// process/thread an independent slice of the stream.
func (g *LCG) Skip(n uint64) {
	a := uint64(lcgA)
	for n > 0 {
		if n&1 == 1 {
			g.state = mul46(a, g.state)
		}
		a = mul46(a, a)
		n >>= 1
	}
}

// At returns a new generator positioned n steps after seed, without
// mutating g (convenience for spawning per-thread streams).
//
//ookami:pure builds a fresh generator
func At(seed, n uint64) *LCG {
	g := NewLCG(seed)
	g.Skip(n)
	return g
}

// SplitMix64 is a splittable counter-based generator: Uint64(i) is a pure
// function of (seed, i), so any lane or thread can draw element i
// independently — the structure a vectorized random number generator needs.
type SplitMix64 struct {
	Seed uint64
}

// Uint64 returns the i-th element of the stream.
//
//ookami:pure counter-mode generator, no internal state
func (s SplitMix64) Uint64(i uint64) uint64 {
	z := s.Seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns the i-th element as a double in [0, 1).
//
//ookami:pure
func (s SplitMix64) Float64(i uint64) float64 {
	return float64(s.Uint64(i)>>11) * (1.0 / (1 << 53))
}

// Fill populates dst with consecutive stream elements starting at `from`.
//
//ookami:pure fills only the caller-owned dst
func (s SplitMix64) Fill(dst []float64, from uint64) {
	for i := range dst {
		dst[i] = s.Float64(from + uint64(i))
	}
}
