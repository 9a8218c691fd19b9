package rng

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// bigMul46 is the independent reference for mul46: the exact product
// in arbitrary precision, reduced mod 2^46.
func bigMul46(a, b uint64) uint64 {
	p := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
	return p.Mod(p, big.NewInt(lcgMod)).Uint64()
}

func TestMul46MatchesBigArithmetic(t *testing.T) {
	// Operands whose full product overflows 64 bits, where mod 2^64
	// wrap-around must still leave the low 46 bits exact.
	cases := [][2]uint64{{3, 5}, {1 << 20, 1 << 20}, {lcgA, 271828183}, {lcgMask, 2},
		{lcgMask, lcgMask}, {lcgA4, lcgMask - 1}, {1 << 45, 1 << 45}}
	for _, c := range cases {
		if got, want := mul46(c[0], c[1]), bigMul46(c[0], c[1]); got != want {
			t.Errorf("mul46(%d,%d) = %d want %d", c[0], c[1], got, want)
		}
	}
}

func TestMul46Property(t *testing.T) {
	f := func(a, b uint64) bool {
		a &= lcgMask
		b &= lcgMask
		return mul46(a, b) == bigMul46(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillMatchesNext(t *testing.T) {
	skipped := NewLCG(DefaultSeed)
	skipped.Skip(123457)
	starts := map[string]uint64{"seed": DefaultSeed & lcgMask, "skipped": skipped.State()}
	for name, start := range starts {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 1023, 1024, 2049} {
			seq := &LCG{state: start}
			want := make([]float64, n)
			for i := range want {
				want[i] = seq.Next()
			}
			fill := &LCG{state: start}
			got := make([]float64, n)
			fill.Fill(got)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: Fill(%d)[%d] = %v, Next gives %v", name, n, i, got[i], want[i])
				}
			}
			if fill.State() != seq.State() {
				t.Errorf("%s: Fill(%d) ends in state %d, %d calls to Next in %d", name, n, fill.State(), n, seq.State())
			}
		}
	}
}

func BenchmarkLCGNext(b *testing.B) {
	g := NewLCG(DefaultSeed)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += g.Next()
	}
	_ = sink
}

func BenchmarkLCGFill(b *testing.B) {
	g := NewLCG(DefaultSeed)
	buf := make([]float64, 2048)
	b.SetBytes(int64(8 * len(buf)))
	for i := 0; i < b.N; i++ {
		g.Fill(buf)
	}
}

func TestLCGKnownSequence(t *testing.T) {
	// First values of the NPB stream from seed 271828183: each must lie in
	// (0,1) and the state recurrence must hold exactly.
	g := NewLCG(DefaultSeed)
	prev := g.State()
	for i := 0; i < 1000; i++ {
		v := g.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %d out of range: %v", i, v)
		}
		want := mul46(lcgA, prev)
		if g.State() != want {
			t.Fatalf("state recurrence broken at %d", i)
		}
		prev = g.State()
	}
}

func TestLCGPeriodSanity(t *testing.T) {
	// The generator must not return to the seed quickly (full period is
	// 2^44 for this LCG).
	g := NewLCG(DefaultSeed)
	for i := 0; i < 100000; i++ {
		g.Next()
		if g.State() == DefaultSeed {
			t.Fatalf("premature cycle at step %d", i)
		}
	}
}

func TestSkipMatchesSequentialAdvance(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 64, 1000, 123457} {
		seq := NewLCG(DefaultSeed)
		for i := uint64(0); i < n; i++ {
			seq.Next()
		}
		skip := NewLCG(DefaultSeed)
		skip.Skip(n)
		if seq.State() != skip.State() {
			t.Errorf("Skip(%d) state %d != sequential %d", n, skip.State(), seq.State())
		}
		if at := At(DefaultSeed, n); at.State() != seq.State() {
			t.Errorf("At(%d) mismatch", n)
		}
	}
}

func TestSkipComposes(t *testing.T) {
	// Property: Skip(a) then Skip(b) == Skip(a+b).
	f := func(a, b uint16) bool {
		g1 := NewLCG(DefaultSeed)
		g1.Skip(uint64(a))
		g1.Skip(uint64(b))
		g2 := NewLCG(DefaultSeed)
		g2.Skip(uint64(a) + uint64(b))
		return g1.State() == g2.State()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCGUniformity(t *testing.T) {
	// Coarse chi-square-ish check: 10 bins over 100k draws.
	g := NewLCG(DefaultSeed)
	const n = 100000
	var bins [10]int
	for i := 0; i < n; i++ {
		bins[int(g.Next()*10)]++
	}
	for b, c := range bins {
		if math.Abs(float64(c)-n/10) > 500 {
			t.Errorf("bin %d count %d too far from %d", b, c, n/10)
		}
	}
}

func TestSplitMixDeterministicAndSplittable(t *testing.T) {
	s := SplitMix64{Seed: 42}
	if s.Uint64(5) != s.Uint64(5) {
		t.Error("not deterministic")
	}
	if s.Uint64(5) == s.Uint64(6) {
		t.Error("adjacent outputs equal")
	}
	other := SplitMix64{Seed: 43}
	if s.Uint64(5) == other.Uint64(5) {
		t.Error("different seeds should differ")
	}
	v := s.Float64(9)
	if v < 0 || v >= 1 {
		t.Errorf("float out of range: %v", v)
	}
}

func TestSplitMixFillMatchesPointwise(t *testing.T) {
	s := SplitMix64{Seed: 7}
	buf := make([]float64, 64)
	s.Fill(buf, 100)
	for i := range buf {
		if buf[i] != s.Float64(100+uint64(i)) {
			t.Fatalf("fill mismatch at %d", i)
		}
	}
}

func TestSplitMixUniformity(t *testing.T) {
	s := SplitMix64{Seed: 1}
	const n = 100000
	var bins [10]int
	for i := uint64(0); i < n; i++ {
		bins[int(s.Float64(i)*10)]++
	}
	for b, c := range bins {
		if math.Abs(float64(c)-n/10) > 500 {
			t.Errorf("bin %d count %d too far from %d", b, c, n/10)
		}
	}
}
