package npb

import (
	"fmt"
	"math"

	"ookami/internal/omp"
	"ookami/internal/perfmodel"
	"ookami/internal/rng"
)

// EP is the Embarrassingly Parallel benchmark: generate 2^(M+1) uniform
// deviates with the NPB LCG, form pairs scaled to (-1,1), accept pairs
// inside the unit disc, transform them to Gaussian deviates with the
// Box–Muller polar method, and histogram max(|X|,|Y|) into ten annuli.
// This implementation follows the NPB spec exactly, including the chunked
// stream partitioning via the LCG's O(log n) jump-ahead, so results are
// identical for any thread count. Like ep.f, which fills a batch with
// vranlc before its acceptance loop, it works on batches of epBatch
// pairs: fill the uniforms, compact the accepted pairs, then take the
// logs, square roots and sums as separate passes over the batch.
type EP struct{}

// NewEP returns the EP benchmark.
func NewEP() *EP { return &EP{} }

// Name returns "EP".
func (*EP) Name() string { return "EP" }

// epM returns the log2 of the pair count per class (NPB table).
func epM(c Class) uint {
	switch c {
	case ClassS:
		return 24
	case ClassW:
		return 25
	case ClassA:
		return 28
	case ClassB:
		return 30
	default: // ClassC
		return 32
	}
}

// epChunkLog is the log2 of the chunk size (NPB uses 2^16 pairs per
// chunk): the unit of stream partitioning across threads.
const epChunkLog = 16

// epBatch is the number of pairs a worker processes per pass. ep.f
// fills a whole chunk at once; a batch keeps a worker's arrays at 48 KB,
// small enough to stay in cache from one pass to the next.
const epBatch = 1024

// EPOutput carries the benchmark's raw outputs for verification.
type EPOutput struct {
	SX, SY float64
	Q      [10]float64 // annulus counts
	Pairs  float64     // accepted Gaussian pairs
}

// RunFull executes EP and returns the full output (Run wraps this).
func (e *EP) RunFull(c Class, team *omp.Team) EPOutput {
	return runEP(epM(c), team)
}

// runEP runs EP over 2^m pairs.
func runEP(m uint, team *omp.Team) EPOutput {
	nPairs := uint64(1) << m
	nChunks := int(nPairs >> epChunkLog)
	if nChunks == 0 {
		nChunks = 1
	}
	pairsPerChunk := nPairs / uint64(nChunks)

	// One partial per chunk, merged in chunk order afterwards, so the
	// result is bitwise identical for every thread count.
	parts := make([]EPOutput, nChunks)
	team.ForRange(0, nChunks, omp.Static, 0, func(a, b int) {
		var u [2 * epBatch]float64          // uniforms, x and y interleaved
		var xs, ys, ts, fs [epBatch]float64 // accepted pairs, compacted
		for chunk := a; chunk < b; chunk++ {
			// Position an independent generator at this chunk's offset:
			// each pair consumes two numbers.
			g := rng.At(rng.DefaultSeed, 2*uint64(chunk)*pairsPerChunk)
			var sx, sy float64
			var q [10]uint64
			for left := pairsPerChunk; left > 0; {
				nb := int(min(left, epBatch))
				left -= uint64(nb)
				g.Fill(u[:2*nb])
				// Form the pairs and keep those inside the unit disc, in
				// order: every pair is stored, but k advances only past
				// accepted ones, so there is no branch to mispredict.
				// k <= i < epBatch, so the mask never changes k; it only
				// proves the bound to the compiler.
				k := 0
				for i := range nb {
					x := 2*u[2*i] - 1
					y := 2*u[2*i+1] - 1
					t := x*x + y*y
					xs[k&(epBatch-1)], ys[k&(epBatch-1)], ts[k&(epBatch-1)] = x, y, t
					if t <= 1 {
						k++
					}
				}
				acc := ts[:k]
				for j, t := range acc {
					fs[j] = math.Log(t)
				}
				for j, t := range acc {
					fs[j] = math.Sqrt(-2 * fs[j] / t)
				}
				for j := range acc {
					gx, gy := xs[j]*fs[j], ys[j]*fs[j]
					l := uint(max(math.Abs(gx), math.Abs(gy)))
					q[min(l, 9)]++
					sx += gx
					sy += gy
				}
			}
			p := &parts[chunk]
			p.SX, p.SY = sx, sy
			for l, n := range q {
				p.Q[l] = float64(n)
				p.Pairs += float64(n)
			}
		}
	})

	var out EPOutput
	for i := range parts {
		out.SX += parts[i].SX
		out.SY += parts[i].SY
		out.Pairs += parts[i].Pairs
		for l := 0; l < 10; l++ {
			out.Q[l] += parts[i].Q[l]
		}
	}
	return out
}

// Run executes EP and verifies its outputs. For the executable classes the
// verification is (a) exact thread-count independence, established by the
// test suite, and (b) the statistical invariants of the Gaussian outputs:
// acceptance ratio pi/4, annulus fractions, and mean bounds.
func (e *EP) Run(c Class, team *omp.Team) (Result, error) {
	out := e.RunFull(c, team)
	n := float64(uint64(1) << epM(c))
	res := Result{Benchmark: "EP", Class: c, Checksum: out.SX, Stats: e.Characterize(c)}

	// Acceptance ratio must be pi/4 to Monte-Carlo accuracy.
	ratio := out.Pairs / n
	tol := 4 / math.Sqrt(n)
	if math.Abs(ratio-math.Pi/4) > tol {
		return res, fmt.Errorf("EP: acceptance ratio %v, want %v +- %v", ratio, math.Pi/4, tol)
	}
	// Gaussian annulus fractions: P(l <= max(|X|,|Y|) < l+1) with X,Y iid
	// N(0,1) conditioned on acceptance; the dominant mass sits in annuli
	// 0-2 with fraction ~0.68, 0.27, 0.043 respectively.
	p0 := gaussAnnulus(0)
	if math.Abs(out.Q[0]/out.Pairs-p0) > 0.01 {
		return res, fmt.Errorf("EP: annulus-0 fraction %v, want %v", out.Q[0]/out.Pairs, p0)
	}
	// Means of the sums are 0; bound |sx|/pairs by a few sigmas.
	if math.Abs(out.SX)/out.Pairs > 5/math.Sqrt(out.Pairs) {
		return res, fmt.Errorf("EP: sx mean too large: %v", out.SX/out.Pairs)
	}
	res.Verified = true
	return res, nil
}

// gaussAnnulus returns P(l <= max(|X|,|Y|) < l+1) for iid standard normals
// (the Box–Muller outputs are unconditionally N(0,1)).
func gaussAnnulus(l int) float64 {
	cdf := func(x float64) float64 { return math.Erf(x / math.Sqrt2) } // P(|X|<x)
	in := func(x float64) float64 { return cdf(x) * cdf(x) }           // P(max<x)
	return in(float64(l+1)) - in(float64(l))
}

// Characterize computes EP's cost model: per pair, two LCG steps (~16
// flops), the acceptance test (4 flops) and, for accepted pairs (pi/4),
// one log, one sqrt, one divide and ~8 flops. Memory traffic is
// negligible — EP is the compute-bound pole of Figures 3-6.
func (e *EP) Characterize(c Class) Stats {
	n := float64(uint64(1) << epM(c))
	accepted := n * math.Pi / 4
	return Stats{
		Flops:       n*20 + accepted*8,
		StreamBytes: 1e6, // chunk buffers only
		MathCalls: map[perfmodel.MathFn]float64{
			perfmodel.FnLog:  accepted,
			perfmodel.FnSqrt: accepted,
		},
		VecFrac:    0.15, // the LCG recurrence and acceptance bookkeeping stay scalar
		SerialFrac: 1e-6,
		Barriers:   float64(team48Chunks(c)),
	}
}

func team48Chunks(c Class) int {
	n := int(uint64(1) << (epM(c) - epChunkLog))
	if n == 0 {
		n = 1
	}
	return 1 + n/1024
}
