package perfmodel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ookami/internal/machine"
	pm "ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// inCoreBound is the analytic cycles-per-iteration floor of body on p from
// the port-pressure half of the OSACA-style in-core model (Alappat et al.,
// ECM modeling of SpMV and Lattice QCD on A64FX): the largest of the issue
// bound, each pipe kind's summed occupancy over its pipe count, and the
// summed FDIV+FSQRT occupancy, which all lands on FP pipe 0.
func inCoreBound(p *pm.Profile, body pm.Body) float64 {
	bound := float64(len(body)) / float64(p.IssueWidth)
	busy := map[string]float64{}
	divider := 0.0
	for _, ins := range body {
		occ := float64(p.CostOf(ins.Op).Occupancy)
		kind, pipes := pipesFor(p, ins.Op)
		busy[kind] += occ / float64(pipes)
		if ins.Op == pm.FDIV || ins.Op == pm.FSQRT {
			divider += occ
		}
	}
	for _, b := range busy {
		bound = math.Max(bound, b)
	}
	return math.Max(bound, divider)
}

// recurrenceBound is the loop-carried critical-path half of the in-core
// model: the maximum cycle ratio of body's dependence graph, the summed
// result latency around a recurrence over the number of carried edges on
// it (the iterations it spans). Every recurrence leaves an iteration
// through a carried edge, so it splits into segments that each enter an
// iteration at a carried-edge target j, follow same-iteration deps to a
// carried-edge source c, and cross into the next iteration at a target of
// c. Over the graph of those segments, whose edges all span one
// iteration, the maximum cycle ratio is the maximum cycle mean, which
// Karp's algorithm gives exactly. It is 0 for a body without recurrences.
func recurrenceBound(p *pm.Profile, body pm.Body) float64 {
	n := len(body)
	lat := func(i int) int { return p.CostOf(body[i].Op).Latency }
	// Carried-edge targets are the segment graph's nodes.
	var targets []int
	for j, ins := range body {
		if len(ins.Carried) > 0 {
			targets = append(targets, j)
		}
	}
	m := len(targets)
	if m == 0 {
		return 0
	}
	// seg[a][b] is the heaviest segment from target a into target b, or
	// -1 if there is none.
	seg := make([][]int, m)
	for a, j := range targets {
		// Longest same-iteration path from j to each instruction, counting
		// the latency of every instruction on it but the last. Deps point
		// to earlier instructions, so index order is topological.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[j] = 0
		for i := j + 1; i < n; i++ {
			for _, d := range body[i].Deps {
				if dist[d] >= 0 {
					dist[i] = max(dist[i], dist[d]+lat(d))
				}
			}
		}
		seg[a] = make([]int, m)
		for b, k := range targets {
			seg[a][b] = -1
			for _, c := range body[k].Carried {
				if dist[c] >= 0 {
					seg[a][b] = max(seg[a][b], dist[c]+lat(c))
				}
			}
		}
	}
	// Karp: w[k][v] is the heaviest walk of exactly k segments ending at
	// v, starting anywhere; the maximum cycle mean is the largest over v
	// of the smallest (w[m][v]-w[k][v])/(m-k).
	const none = math.MinInt
	w := make([][]int, m+1)
	w[0] = make([]int, m)
	for k := 1; k <= m; k++ {
		w[k] = make([]int, m)
		for v := range w[k] {
			w[k][v] = none
			for u := range w[k-1] {
				if w[k-1][u] != none && seg[u][v] >= 0 {
					w[k][v] = max(w[k][v], w[k-1][u]+seg[u][v])
				}
			}
		}
	}
	best := 0.0
	for v := range m {
		if w[m][v] == none {
			continue
		}
		worst := math.Inf(1)
		for k := 0; k < m; k++ {
			if w[k][v] != none {
				worst = math.Min(worst, float64(w[m][v]-w[k][v])/float64(m-k))
			}
		}
		best = math.Max(best, worst)
	}
	return best
}

// pipesFor names the pipe kind op issues to and how many pipes of that
// kind p has.
func pipesFor(p *pm.Profile, op pm.Op) (string, int) {
	switch op {
	case pm.LOAD, pm.GATHER, pm.GATHERW:
		return "load", p.LoadPipes
	case pm.STORE, pm.PSTORE, pm.SCATTER, pm.SCATTERW:
		return "store", p.StorePipes
	case pm.INT, pm.PRED, pm.BRANCH:
		return "int", p.IntPipes
	}
	return "fp", p.FPPipes
}

// maxLatency is the longest result latency in p's cost table.
func maxLatency(p *pm.Profile) int {
	m := 0
	for _, c := range p.Costs {
		m = max(m, c.Latency)
	}
	return m
}

// suiteBody is one compiled body of the paper's loop suite.
type suiteBody struct {
	name string
	p    *pm.Profile
	body pm.Body
}

// suiteBodies returns every vectorized body the paper's loop suite
// compiles to: each toolchain's Figure 1-2 loops and the stencil, on
// A64FX and on Skylake.
func suiteBodies(tb testing.TB) []suiteBody {
	tb.Helper()
	loops := append(append([]toolchain.Loop{}, toolchain.SimpleLoops...), toolchain.MathLoops...)
	loops = append(loops, toolchain.LoopStencil)
	var out []suiteBody
	for _, m := range []machine.Machine{machine.A64FX, machine.SkylakeGold6140} {
		p, ok := pm.ProfileFor(m.Name)
		if !ok {
			tb.Fatalf("no profile for %s", m.Name)
		}
		for _, tc := range toolchain.All {
			if !tc.Supports(m) {
				continue
			}
			for _, l := range loops {
				if c := tc.Compile(l, m); c.Vectorized {
					out = append(out, suiteBody{fmt.Sprintf("%s/%s/%s", tc.Name, l, m.Name), p, c.Body})
				}
			}
		}
	}
	if len(out) != 57 {
		tb.Fatalf("compiled %d vectorized bodies, want the 57 toolchain x loop x machine bodies", len(out))
	}
	return out
}

func TestRecurrenceBoundExamples(t *testing.T) {
	p := &pm.A64FXProfile
	fma, fadd, fmul := p.CostOf(pm.FMA).Latency, p.CostOf(pm.FADD).Latency, p.CostOf(pm.FMUL).Latency
	cases := []struct {
		name string
		body pm.Body
		want float64
	}{
		{"no recurrence", pm.Body{pm.I(pm.LOAD), pm.I(pm.FMA, 0), pm.I(pm.STORE, 1)}, 0},
		{"accumulator", pm.Body{pm.IC(pm.FMA, nil, []int{0})}, float64(fma)},
		{"chain closed by one carried edge", pm.Body{pm.IC(pm.FMA, nil, []int{1}), pm.I(pm.FMUL, 0)}, float64(fma + fmul)},
		{"two carried edges", pm.Body{pm.IC(pm.FMA, nil, []int{1}), pm.IC(pm.FADD, nil, []int{0})}, float64(fma+fadd) / 2},
		{"heavier of two recurrences", pm.Body{pm.IC(pm.FADD, nil, []int{0}), pm.IC(pm.FMA, nil, []int{1}), pm.I(pm.STORE, 0, 1)}, float64(max(fma, fadd))},
	}
	for _, c := range cases {
		if got := recurrenceBound(p, c.body); got != c.want {
			t.Errorf("%s: recurrence bound %v, want %v", c.name, got, c.want)
		}
	}
}

// recurrentBody draws a random valid body in which every instruction may
// depend on earlier ones of its iteration and carry deps on any of the
// previous one, so most draws hold recurrences.
func recurrentBody(rng *rand.Rand) pm.Body {
	ops := []pm.Op{pm.FMA, pm.FMUL, pm.FADD, pm.FDIV, pm.FSQRT, pm.LOAD, pm.GATHER, pm.STORE, pm.INT, pm.BRANCH}
	body := make(pm.Body, 1+rng.Intn(12))
	for i := range body {
		var deps, carried []int
		for d := rng.Intn(3); i > 0 && d > 0; d-- {
			deps = append(deps, rng.Intn(i))
		}
		for c := rng.Intn(3); c > 0; c-- {
			carried = append(carried, rng.Intn(len(body)))
		}
		body[i] = pm.IC(ops[rng.Intn(len(ops))], deps, carried)
	}
	return body
}

// TestCyclesPerIterAboveRecurrenceBound checks the loop-carried half on
// seeded random bodies, which, unlike the compiled suite, carry
// recurrences.
func TestCyclesPerIterAboveRecurrenceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recurrences := 0
	for range 300 {
		body := recurrentBody(rng)
		for _, p := range []*pm.Profile{&pm.A64FXProfile, &pm.SkylakeProfile} {
			bound := recurrenceBound(p, body)
			if bound > 0 {
				recurrences++
			}
			if got, slack := p.CyclesPerIter(body), float64(maxLatency(p))/64; got < bound-slack {
				t.Fatalf("%s, body %v: %.3f cycles/iter below the loop-carried critical path %.3f (slack %.3f)",
					p.Name, body, got, bound, slack)
			}
		}
	}
	if recurrences < 300 {
		t.Errorf("only %d of 600 body x profile cases had a nonzero recurrence bound", recurrences)
	}
}

// TestCyclesPerIterAboveInCoreBound checks every compiled body the paper's
// loop suite produces, and its x2 and x4 unrolls, against the analytic
// bound: the larger of port pressure and the loop-carried critical path.
// (The compiled loops carry no recurrences, so the second is 0 for all of
// them; TestCyclesPerIterAboveRecurrenceBound exercises it.)
// CyclesPerIter differences a 64- and a 128-iteration run, and the two
// runs' fill/drain tails do not cancel exactly: the unrolled Skylake
// Intel gather bodies come out 1-2 cycles short per 64 iterations (35.98
// against a bound of 36.00). A tail is at most one result latency long, so
// the slack is the profile's longest latency spread over the 64
// differenced iterations.
func TestCyclesPerIterAboveInCoreBound(t *testing.T) {
	for _, sb := range suiteBodies(t) {
		slack := float64(maxLatency(sb.p)) / 64
		for _, unroll := range []int{1, 2, 4} {
			body := sb.body.Repeat(unroll)
			got := sb.p.CyclesPerIter(body)
			if bound := inCoreBound(sb.p, body); got < bound-slack {
				t.Errorf("%s x%d: %.3f cycles/iter below the port-pressure bound %.3f (slack %.3f)",
					sb.name, unroll, got, bound, slack)
			}
			if bound := recurrenceBound(sb.p, body); got < bound-slack {
				t.Errorf("%s x%d: %.3f cycles/iter below the loop-carried critical path %.3f (slack %.3f)",
					sb.name, unroll, got, bound, slack)
			}
		}
	}
}
