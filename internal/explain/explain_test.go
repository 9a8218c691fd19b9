package explain

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// NewBreakdown reads cycles/iter off the traced run it shares with
// CyclesPerIter; the numbers must be exactly those of the separate
// perfmodel calls. The CLI's golden files pin the rendered text.
func TestBreakdownMatchesDirectSchedule(t *testing.T) {
	for _, m := range []machine.Machine{machine.A64FX, machine.SkylakeGold6140} {
		prof, _ := perfmodel.ProfileFor(m.Name)
		for _, tc := range toolchain.All {
			if !tc.Supports(m) {
				continue
			}
			for _, l := range AllLoops {
				c := tc.Compile(l, m)
				if !c.Vectorized {
					continue
				}
				b := NewBreakdown(prof, c.Body, c.ElemsPerIter)
				_, util := prof.ScheduleTrace(c.Body, perfmodel.SteadyIters)
				cpi := prof.CyclesPerIter(c.Body)
				if b.CyclesPerIter != cpi || b.CyclesPerElem != cpi/float64(c.ElemsPerIter) || b.IPC != util.IPC {
					t.Errorf("%s/%s on %s: breakdown cycles/iter %v, cycles/elem %v, IPC %v; want %v, %v, %v",
						tc.Name, l, m.Name, b.CyclesPerIter, b.CyclesPerElem, b.IPC, cpi, cpi/float64(c.ElemsPerIter), util.IPC)
				}
			}
		}
	}
}

func TestBreakdownTextRendersSections(t *testing.T) {
	p := perfmodel.A64FXProfile
	body := perfmodel.Body{perfmodel.I(perfmodel.LOAD), perfmodel.I(perfmodel.FMA, 0), perfmodel.I(perfmodel.FMA, 1),
		perfmodel.I(perfmodel.STORE, 2), perfmodel.I(perfmodel.INT), perfmodel.I(perfmodel.BRANCH)}
	out := NewBreakdown(&p, body, 8).Text()
	for _, want := range []string{"cycles/iter", "cycles/element", "pipe utilization", "critical endpoint"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown text missing %q:\n%s", want, out)
		}
	}
}

func TestExplainScalarFallback(t *testing.T) {
	r, err := Explain(toolchain.GNU, toolchain.LoopExp, machine.A64FX)
	if err != nil {
		t.Fatal(err)
	}
	if r.Vectorized || r.Breakdown != nil {
		t.Errorf("GNU exp should stay scalar, got vectorized=%v breakdown=%v", r.Vectorized, r.Breakdown)
	}
	if r.SerialCyclesPerElem != 32 {
		t.Errorf("GNU exp serial cost = %v, want the paper's 32 cycles", r.SerialCyclesPerElem)
	}
}

func TestExplainRejectsBadCombination(t *testing.T) {
	if _, err := Explain(toolchain.Intel, toolchain.LoopSimple, machine.A64FX); err == nil {
		t.Error("Intel on A64FX: want error, got nil")
	}
}

// ExecFor here and figures' engine-memoized variant must price identically;
// this is the anti-duplication pin between the serve API and the figures.
func TestExecForMatchesDirectDerivation(t *testing.T) {
	for _, tc := range toolchain.OnA64FX {
		e := ExecFor(tc, machine.A64FX, 0.8)
		if e.CyclesPerFlop <= 0 || math.IsNaN(e.CyclesPerFlop) {
			t.Errorf("%s: bad CyclesPerFlop %v", tc.Name, e.CyclesPerFlop)
		}
		if e.Placement != tc.Placement {
			t.Errorf("%s: placement %v, want %v", tc.Name, e.Placement, tc.Placement)
		}
		mc := MathCost(tc, machine.A64FX)
		if len(mc) != 6 {
			t.Errorf("%s: math cost has %d entries, want 6", tc.Name, len(mc))
		}
		for fn, c := range mc {
			if c <= 0 || math.IsNaN(c) {
				t.Errorf("%s: %s costs %v", tc.Name, fn, c)
			}
		}
	}
}

func TestPredictLoopShape(t *testing.T) {
	p, err := Predict(Request{Kernel: "exp", Toolchain: "Fujitsu"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "loop" || p.Kernel != "exp" || p.Machine != machine.A64FX.Name {
		t.Errorf("unexpected identity: %+v", p)
	}
	if p.Threads != 1 || p.Elems != DefaultElems {
		t.Errorf("defaults not applied: threads=%d elems=%d", p.Threads, p.Elems)
	}
	if p.RuntimeSeconds <= 0 || p.CyclesPerElement <= 0 {
		t.Errorf("non-positive prediction: %+v", p)
	}
	if p.Breakdown == nil || len(p.Report) == 0 {
		t.Error("vectorized loop should carry breakdown and compile report")
	}
	if p.Bound != "compute" && p.Bound != "memory" {
		t.Errorf("bad bound %q", p.Bound)
	}
	if got := p.Parts.Total(); math.Abs(got-p.RuntimeSeconds) > 1e-15 {
		t.Errorf("parts total %v != runtime %v", got, p.RuntimeSeconds)
	}
}

// More threads must never predict slower on a data-parallel loop, and the
// memory term must eventually dominate a streaming kernel.
func TestPredictLoopThreadScaling(t *testing.T) {
	prev := math.Inf(1)
	for _, threads := range []int{1, 4, 12, 48} {
		p, err := Predict(Request{Kernel: "simple", Toolchain: "GNU", Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if p.RuntimeSeconds > prev*(1+1e-12) {
			t.Errorf("threads=%d: runtime %v got slower than %v", threads, p.RuntimeSeconds, prev)
		}
		prev = p.RuntimeSeconds
	}
	p, _ := Predict(Request{Kernel: "simple", Toolchain: "GNU", Threads: 48})
	if p.Bound != "memory" {
		t.Errorf("48-thread stream triad should be memory-bound, got %q", p.Bound)
	}
}

// Thread counts beyond the node clamp to the core count (NodeTime's rule).
func TestPredictClampsThreads(t *testing.T) {
	a, err := Predict(Request{Kernel: "CG", Toolchain: "GNU", Threads: 48})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(Request{Kernel: "CG", Toolchain: "GNU", Threads: 500})
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeSeconds != b.RuntimeSeconds || b.Threads != 48 {
		t.Errorf("500 threads should clamp to 48: %+v vs %+v", a, b)
	}
}

func TestPredictAppShape(t *testing.T) {
	// (The exact equivalence with the figures pipeline — NPBTime — is
	// pinned from the figures side, where importing both packages is
	// cycle-free: see figures.TestNPBTimeMatchesExplainPredict.)
	for _, kernel := range []string{"BT", "CG", "EP", "LU", "SP", "UA"} {
		for _, threads := range []int{1, 48} {
			p, err := Predict(Request{Kernel: kernel, Toolchain: "Fujitsu", Threads: threads})
			if err != nil {
				t.Fatalf("%s: %v", kernel, err)
			}
			if p.RuntimeSeconds <= 0 || math.IsNaN(p.RuntimeSeconds) {
				t.Errorf("%s threads=%d: bad runtime %v", kernel, threads, p.RuntimeSeconds)
			}
			if p.Class != "C" || p.Kind != "app" {
				t.Errorf("%s: identity %+v", kernel, p)
			}
			if p.Breakdown != nil || p.Elems != 0 {
				t.Errorf("%s: app prediction carries loop-only fields: %+v", kernel, p)
			}
			if total := p.Parts.Total(); math.Abs(total-p.RuntimeSeconds) > 1e-15*math.Abs(total) {
				t.Errorf("%s: parts total %v != runtime %v", kernel, total, p.RuntimeSeconds)
			}
		}
	}
}

func TestPredictErrors(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		unknown bool // expect *UnknownError; otherwise *BadRequestError
	}{
		{"unknown kernel", Request{Kernel: "nope", Toolchain: "GNU"}, true},
		{"unknown toolchain", Request{Kernel: "exp", Toolchain: "nope"}, true},
		{"unknown machine", Request{Kernel: "exp", Toolchain: "GNU", Machine: "nope"}, true},
		{"intel on a64fx", Request{Kernel: "exp", Toolchain: "Intel", Machine: "Ookami"}, false},
		{"negative threads", Request{Kernel: "exp", Toolchain: "GNU", Threads: -1}, false},
		{"negative elems", Request{Kernel: "exp", Toolchain: "GNU", Elems: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Predict(c.req)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var ue *UnknownError
			var be *BadRequestError
			if c.unknown && !errors.As(err, &ue) {
				t.Errorf("want UnknownError, got %T: %v", err, err)
			}
			if !c.unknown && !errors.As(err, &be) {
				t.Errorf("want BadRequestError, got %T: %v", err, err)
			}
			if _, kerr := c.req.Key(); kerr == nil {
				t.Error("Key() accepted a request Predict rejects")
			}
		})
	}
}

// The cache key must canonicalize case and defaults: requests that
// Predict answers identically must share a key.
func TestRequestKeyCanonicalizes(t *testing.T) {
	a, err := Request{Kernel: "EXP", Toolchain: "fujitsu"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{Kernel: "exp", Toolchain: "Fujitsu", Machine: "ookami", Threads: 1, Elems: DefaultElems}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
	c, _ := Request{Kernel: "exp", Toolchain: "Fujitsu", Threads: 2}.Key()
	if a == c {
		t.Error("different thread counts must not share a key")
	}
}

// Predict clamps threads to the machine's cores, so the key must too:
// otherwise every thread count above the cores is a distinct cache entry
// for one and the same answer.
func TestRequestKeyClampsThreadsToCores(t *testing.T) {
	var keys []string
	var bodies [][]byte
	for _, threads := range []int{48, 49, 1000000} {
		req := Request{Kernel: "CG", Toolchain: "Fujitsu", Threads: threads}
		k, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		keys, bodies = append(keys, k), append(bodies, body)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Errorf("keys differ: %q vs %q", keys[i], keys[0])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("bodies differ:\n%s\n%s", bodies[i], bodies[0])
		}
	}
}

// FuzzRequestKey checks the cache contract from both sides: equal keys
// give byte-equal answers, and a request rebuilt from the canonical
// answer has the original's key.
func FuzzRequestKey(f *testing.F) {
	f.Add("exp", "fujitsu", "", 0, 0, "EXP", "Fujitsu", "ookami", 1, DefaultElems)
	f.Add("CG", "Fujitsu", "", 48, 0, "cg", "fujitsu", "", 1000000, 7)
	f.Add("gather", "GNU", "", 3, 100, "Gather", "gnu", "", 3, 100)
	f.Fuzz(func(t *testing.T, k1, tc1, m1 string, th1, el1 int, k2, tc2, m2 string, th2, el2 int) {
		a := Request{Kernel: k1, Toolchain: tc1, Machine: m1, Threads: th1, Elems: el1}
		b := Request{Kernel: k2, Toolchain: tc2, Machine: m2, Threads: th2, Elems: el2}
		ka, errA := a.Key()
		kb, errB := b.Key()
		if errA != nil || errB != nil {
			return
		}
		pa, err := Predict(a)
		if err != nil {
			return // Key does not compile the loop; Predict may still refuse
		}
		ja, _ := json.Marshal(pa)
		if ka == kb {
			pb, err := Predict(b)
			if err != nil {
				t.Fatalf("equal keys %q: Predict(a) ok, Predict(b) %v", ka, err)
			}
			if jb, _ := json.Marshal(pb); !bytes.Equal(ja, jb) {
				t.Fatalf("equal keys %q, different answers:\n%s\n%s", ka, ja, jb)
			}
		}
		canon := Request{Kernel: pa.Kernel, Toolchain: pa.Toolchain, Machine: pa.Machine, Threads: pa.Threads, Elems: pa.Elems}
		if kc, err := canon.Key(); err != nil || kc != ka {
			t.Fatalf("canonical request %+v: key %q (%v), original %q", canon, kc, err, ka)
		}
	})
}

func TestDiscoveryLists(t *testing.T) {
	if got := len(Loops()); got != 11 {
		t.Errorf("Loops() = %d entries, want 11", got)
	}
	if got := len(Toolchains()); got != 5 {
		t.Errorf("Toolchains() = %d entries, want 5", got)
	}
	ms := Machines()
	if len(ms) != 4 {
		t.Errorf("Machines() = %d entries, want 4", len(ms))
	}
	for _, m := range ms {
		if m.RidgeFlopByte <= 0 || m.PeakGFLOPSNode <= 0 {
			t.Errorf("machine %s: bad roofline constants %+v", m.Name, m)
		}
	}
}

func TestRooflineResultMatchesText(t *testing.T) {
	r := Roofline()
	if len(r.Machines) != 2 || len(r.Winners) != 6 {
		t.Fatalf("unexpected shape: %d machines, %d winners", len(r.Machines), len(r.Winners))
	}
	text := r.Text()
	for _, w := range r.Winners {
		if !strings.Contains(text, w.App) {
			t.Errorf("text missing app %s", w.App)
		}
	}
	for _, m := range r.Machines {
		if len(m.Points) != 6 {
			t.Errorf("%s: %d points, want 6", m.Machine, len(m.Points))
		}
	}
}
