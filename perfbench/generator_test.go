package main

import (
	"math"
	"reflect"
	"testing"

	"ookami/internal/explain"
)

func sequence(seed int64, client, n int) []request {
	g := newGenerator(seed, client, predictClients)
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestGeneratorIsDeterministicInSeed(t *testing.T) {
	a, b := sequence(7, 1, 3000), sequence(7, 1, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different request sequences")
	}
	if reflect.DeepEqual(a, sequence(8, 1, 3000)) {
		t.Fatal("different seeds produced the same request sequence")
	}
	if reflect.DeepEqual(a, sequence(7, 0, 3000)) {
		t.Fatal("two clients of one seed send the same sequence")
	}
}

// TestPredictMixShares pins the generator to the mix BENCHMARK.json
// declares. The shares are the benchmark's assumptions, not measured
// client traffic; the test keeps the generated requests from drifting
// away from what is declared: exactly one request in ten is cold, every
// cold key is fresh, one hot tuple in three asks for more threads than
// its machine has cores, and the hot requests carry the share the Zipf
// weights of those tuples' ranks give.
func TestPredictMixShares(t *testing.T) {
	hot := hotSet()
	above := 0
	for _, h := range hot {
		m, ok := explain.MachineByName(h.req.Machine)
		if !ok {
			t.Fatalf("hot tuple %+v names an unknown machine", h.req)
		}
		if h.req.Threads > m.Cores {
			above++
		}
		if _, err := h.req.Key(); err != nil {
			t.Fatalf("hot tuple %+v is invalid: %v", h.req, err)
		}
	}
	if 3*above != len(hot) {
		t.Fatalf("%d of %d hot tuples exceed their machine's cores, want one in three", above, len(hot))
	}

	for _, seed := range []int64{1, 2, 99} {
		const n = 200000
		g := newGenerator(seed, 0, predictClients)
		var cold, hotAbove int
		keys := map[string]bool{}
		hotKeys := map[string]bool{}
		for _, h := range hot {
			k, _ := h.req.Key()
			hotKeys[k] = true
		}
		for i := 0; i < n; i++ {
			r := g.next()
			if r.hot < 0 {
				cold++
				k, err := r.req.Key()
				if err != nil {
					t.Fatalf("cold request %+v is invalid: %v", r.req, err)
				}
				if keys[k] || hotKeys[k] {
					t.Fatalf("cold request %+v repeats a key", r.req)
				}
				keys[k] = true
				continue
			}
			if kind := hot[r.hot].kind; kind == loopAboveCores || kind == appAboveCores {
				hotAbove++
			}
		}
		if cold*coldEvery != n {
			t.Errorf("seed %d: %d cold of %d requests, want exactly 1 in %d", seed, cold, n, coldEvery)
		}
		got := float64(hotAbove) / float64(n-cold)
		if want := expectedAboveShare(g); math.Abs(got-want) > 0.01 {
			t.Errorf("seed %d: %.4f of hot requests exceed the cores, want %.4f", seed, got, want)
		}
	}
}

// expectedAboveShare is the probability mass rand.Zipf puts on the ranks
// holding above-cores tuples: P(k) is proportional to (1+k)^-s.
func expectedAboveShare(g *generator) float64 {
	var total, above float64
	for k, h := range g.rank {
		p := math.Pow(1+float64(k), -zipfS)
		total += p
		if kind := g.hot[h].kind; kind == loopAboveCores || kind == appAboveCores {
			above += p
		}
	}
	return above / total
}

// TestRankOrderIsSeedIndependent: the seed permutes tuples only within
// a kind, so every seed sees the same kind at every rank.
func TestRankOrderIsSeedIndependent(t *testing.T) {
	kinds := func(seed int64) []hotKind {
		g := newGenerator(seed, 0, predictClients)
		out := make([]hotKind, len(g.rank))
		for i, h := range g.rank {
			out[i] = g.hot[h].kind
		}
		return out
	}
	if !reflect.DeepEqual(kinds(1), kinds(12345)) {
		t.Fatal("the kind at each Zipf rank depends on the seed")
	}
}
