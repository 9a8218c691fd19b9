package npb

import (
	"math"
	"runtime"
	"testing"

	"ookami/internal/rng"
)

// epReference is the per-pair EP loop: two Next calls per pair, a branch
// on acceptance, one log per accepted pair, and float counters. The
// batched kernel must reproduce it bit for bit, chunking included.
func epReference(m uint) EPOutput {
	nPairs := uint64(1) << m
	nChunks := max(nPairs>>epChunkLog, 1)
	perChunk := nPairs / nChunks
	var out EPOutput
	for chunk := uint64(0); chunk < nChunks; chunk++ {
		g := rng.At(rng.DefaultSeed, 2*chunk*perChunk)
		var p EPOutput
		for i := uint64(0); i < perChunk; i++ {
			x := 2*g.Next() - 1
			y := 2*g.Next() - 1
			t := x*x + y*y
			if t > 1 {
				continue
			}
			f := math.Sqrt(-2 * math.Log(t) / t)
			gx, gy := x*f, y*f
			p.Q[min(int(math.Max(math.Abs(gx), math.Abs(gy))), 9)]++
			p.SX += gx
			p.SY += gy
			p.Pairs++
		}
		out.SX += p.SX
		out.SY += p.SY
		out.Pairs += p.Pairs
		for l := range out.Q {
			out.Q[l] += p.Q[l]
		}
	}
	return out
}

func sameEPBits(a, b EPOutput) bool {
	return math.Float64bits(a.SX) == math.Float64bits(b.SX) &&
		math.Float64bits(a.SY) == math.Float64bits(b.SY) &&
		a.Pairs == b.Pairs && a.Q == b.Q
}

func TestEPGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may contract x*x+y*y into a fused multiply-add on other
		// architectures, which moves the low bits of the sums.
		t.Skip("golden bits are pinned for amd64")
	}
	cases := []struct {
		class  Class
		sx, sy uint64
		pairs  float64
		q      [10]float64
	}{
		{ClassS, 0xc0a95fab5782f06c, 0xc0bb2e683649f51b, 13176389,
			[10]float64{6140517, 5865300, 1100361, 68546, 1648, 17}},
		{ClassW, 0xc0a65ea3b3ddc669, 0xc0b8b00dbdea0057, 26354769,
			[10]float64{12281576, 11729692, 2202726, 137368, 3371, 36}},
	}
	for _, c := range cases {
		if c.class == ClassW && testing.Short() {
			continue
		}
		for _, n := range []int{1, 2, 3, 5} {
			out := NewEP().RunFull(c.class, team(n))
			if math.Float64bits(out.SX) != c.sx || math.Float64bits(out.SY) != c.sy ||
				out.Pairs != c.pairs || out.Q != c.q {
				t.Errorf("class %s, %d threads: SX %#x SY %#x Pairs %v Q %v; want %#x %#x %v %v",
					c.class, n, math.Float64bits(out.SX), math.Float64bits(out.SY), out.Pairs, out.Q,
					c.sx, c.sy, c.pairs, c.q)
			}
		}
	}
}

func TestEPBatchTailMatchesReference(t *testing.T) {
	// 2^0 and 2^5 pairs leave one partial batch per chunk, 2^11 is two
	// whole batches, and 2^17 splits into two chunks.
	for _, m := range []uint{0, 5, 11, 17} {
		want := epReference(m)
		for _, n := range []int{1, 3} {
			if got := runEP(m, team(n)); !sameEPBits(got, want) {
				t.Errorf("m=%d, %d threads: %+v, per-pair reference %+v", m, n, got, want)
			}
		}
	}
}

func TestEPAllocsIndependentOfChunkCount(t *testing.T) {
	tm := team(2)
	// Two chunks keep both workers busy, as class S's 256 chunks do.
	twoChunks := testing.AllocsPerRun(3, func() { runEP(epChunkLog+1, tm) })
	classS := testing.AllocsPerRun(3, func() { NewEP().RunFull(ClassS, tm) })
	// The partials slice, the worksharing closure and the team's
	// goroutines; the batch arrays live on each worker's stack.
	if classS != twoChunks || classS > 16 {
		t.Errorf("RunFull(ClassS) allocates %v times, two chunks %v: want the same small constant", classS, twoChunks)
	}
}
