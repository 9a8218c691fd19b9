package perfmodel

import (
	"math/rand"
	"testing"
)

// refScheduleTrace is the cycle-stepped scheduler the event-driven core
// replaced, kept as the reference for the differential tests: every cycle
// it retires, admits, and rescans the whole window checking every dep. It
// reports capped when the run hit maxCycles with instructions unissued
// (the old loop then returned the truncated time silently).
func refScheduleTrace(p *Profile, body Body, iters int) (events []IssueEvent, util Utilization, capped bool) {
	type refInstr struct {
		op     Op
		deps   []int // global indices
		issued bool
		done   int // cycle result available; -1 = not issued
	}
	n := len(body)
	total := n * iters
	instrs := make([]refInstr, total)
	for k := 0; k < iters; k++ {
		off := k * n
		for i, ins := range body {
			si := refInstr{op: ins.Op, done: -1}
			for _, d := range ins.Deps {
				si.deps = append(si.deps, off+d)
			}
			if k > 0 {
				for _, c := range ins.Carried {
					si.deps = append(si.deps, off-n+c)
				}
			}
			instrs[off+i] = si
		}
	}
	costs := p.buildCostTable()
	var busy [numPipeKinds][]int
	busy[pipeFP] = make([]int, p.FPPipes)
	busy[pipeLoad] = make([]int, p.LoadPipes)
	busy[pipeStore] = make([]int, p.StorePipes)
	busy[pipeInt] = make([]int, p.IntPipes)
	events = make([]IssueEvent, total)

	head, tail, cycle := 0, 0, 0
	for head < total && cycle < maxCycles {
		for head < total && instrs[head].issued && instrs[head].done <= cycle {
			head++
		}
		for tail < total && tail-head < p.Window {
			tail++
		}
		issued := 0
		for gi := head; gi < tail && issued < p.IssueWidth; gi++ {
			ins := &instrs[gi]
			if ins.issued {
				continue
			}
			ready := true
			for _, d := range ins.deps {
				dep := &instrs[d]
				if !dep.issued || dep.done > cycle {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			kind := pipeTab[ins.op]
			slots := busy[kind]
			slot := -1
			if ins.op == FDIV || ins.op == FSQRT {
				if len(slots) > 0 && slots[0] <= cycle {
					slot = 0
				}
			} else {
				for s := range slots {
					if s == 0 && kind == pipeFP && slots[0] > cycle {
						continue
					}
					if slots[s] <= cycle {
						slot = s
						break
					}
				}
			}
			if slot < 0 {
				continue
			}
			c := costs[ins.op]
			slots[slot] = cycle + c.Occupancy
			ins.issued = true
			ins.done = cycle + c.Latency
			events[gi] = IssueEvent{
				Iter: gi / n, Index: gi % n, Op: ins.op,
				Issue: cycle, Done: ins.done,
			}
			switch kind {
			case pipeFP:
				util.FPBusy += c.Occupancy
			case pipeLoad:
				util.LoadBusy += c.Occupancy
			case pipeStore:
				util.StoreBusy += c.Occupancy
			default:
				util.IntBusy += c.Occupancy
			}
			issued++
		}
		cycle++
	}
	last := 0
	for i := range instrs {
		if !instrs[i].issued {
			capped = true
		}
		if instrs[i].done > last {
			last = instrs[i].done
		}
	}
	util.Cycles = last
	util.Instructions = total
	if last > 0 {
		util.IPC = float64(total) / float64(last)
	}
	return events, util, capped
}

// edgeProfile is a hand-built profile without a cost table whose costs
// include zero latency (a consumer issues in its producer's cycle) and
// zero occupancy (a pipe takes several ops in one cycle), with a small
// window and uneven pipe counts.
func edgeProfile() *Profile {
	return &Profile{
		Name:     "edge",
		ClockGHz: 1, FPPipes: 3, LoadPipes: 1, StorePipes: 2, IntPipes: 1,
		IssueWidth: 3, Window: 7,
		Costs: map[Op]Cost{
			FMA:     {0, 1},
			FADD:    {0, 0},
			FMUL:    {3, 0},
			FDIV:    {5, 4},
			FSQRT:   {0, 6},
			LOAD:    {0, 1},
			GATHER:  {2, 3},
			STORE:   {0, 0},
			SCATTER: {1, 2},
			INT:     {0, 0},
			BRANCH:  {2, 1},
		},
	}
}

// equivProfiles are the profiles the differential tests cover; fuzz
// inputs index it modulo its length.
func equivProfiles() []*Profile {
	a64, _ := ProfileFor("Ookami")
	skx := SkylakeProfile // literal copy: no cost table
	return []*Profile{a64, &skx, edgeProfile()}
}

// randomBody draws a valid body over every op class, with up to three
// same-iteration deps (repeats allowed) and up to two carried deps per
// instruction. Most bodies have 1-16 instructions; one in eight has up to
// 116, long enough that carried deps reach past the scheduler's window
// into its ring sizing.
func randomBody(rng *rand.Rand) Body {
	n := 1 + rng.Intn(16)
	if rng.Intn(8) == 0 {
		n += rng.Intn(100)
	}
	body := make(Body, n)
	for i := range body {
		ins := Instr{Op: Op(rng.Intn(numOps))}
		if i > 0 {
			for d := rng.Intn(4); d > 0; d-- {
				ins.Deps = append(ins.Deps, rng.Intn(i))
			}
		}
		for c := rng.Intn(3) - rng.Intn(2); c > 0; c-- {
			ins.Carried = append(ins.Carried, rng.Intn(n))
		}
		body[i] = ins
	}
	return body
}

// checkEquivalent runs body on p through Schedule, ScheduleTrace and the
// reference, and fails on any difference.
func checkEquivalent(t *testing.T, p *Profile, body Body, iters int) {
	t.Helper()
	wantEv, wantUtil, capped := refScheduleTrace(p, body, iters)
	if capped {
		t.Fatalf("%s, %d iters, body %v: reference hit the cycle cap", p.Name, iters, body)
	}
	if got := p.Schedule(body, iters); got != wantUtil.Cycles {
		t.Fatalf("%s, %d iters, body %v: Schedule = %d, reference %d", p.Name, iters, body, got, wantUtil.Cycles)
	}
	ev, util := p.ScheduleTrace(body, iters)
	if util != wantUtil {
		t.Fatalf("%s, %d iters, body %v: utilization %+v, reference %+v", p.Name, iters, body, util, wantUtil)
	}
	for i := range wantEv {
		if ev[i] != wantEv[i] {
			t.Fatalf("%s, %d iters, body %v: event %d = %+v, reference %+v", p.Name, iters, body, i, ev[i], wantEv[i])
		}
	}
}

// TestScheduleMatchesReference is the differential test: seeded random
// bodies, 1-130 iterations, on every equivalence profile.
func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bodies := 400
	if testing.Short() {
		bodies = 60
	}
	profiles := equivProfiles()
	for b := 0; b < bodies; b++ {
		body := randomBody(rng)
		iters := 1 + rng.Intn(130)
		for _, p := range profiles {
			checkEquivalent(t, p, body, iters)
		}
	}
}

// checkCyclesPerIter compares CyclesPerIter, which extrapolates once the
// schedule repeats, with the reference's two full runs.
func checkCyclesPerIter(t *testing.T, p *Profile, body Body) {
	t.Helper()
	_, short, capped := refScheduleTrace(p, body, SteadyIters)
	_, long, cappedLong := refScheduleTrace(p, body, 2*SteadyIters)
	if capped || cappedLong {
		t.Fatalf("%s, body %v: reference hit the cycle cap", p.Name, body)
	}
	want := float64(long.Cycles-short.Cycles) / SteadyIters
	if got := p.CyclesPerIter(body); got != want {
		t.Fatalf("%s, body %v: CyclesPerIter = %v, reference (%d-%d)/%d = %v",
			p.Name, body, got, long.Cycles, short.Cycles, SteadyIters, want)
	}
}

// TestCyclesPerIterMatchesReference differences the reference's 64- and
// 128-iteration runs for seeded random bodies on every equivalence
// profile.
func TestCyclesPerIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bodies := 150
	if testing.Short() {
		bodies = 30
	}
	profiles := equivProfiles()
	for b := 0; b < bodies; b++ {
		body := randomBody(rng)
		for _, p := range profiles {
			checkCyclesPerIter(t, p, body)
		}
	}
}

func FuzzScheduleEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(1+seed*16))
	}
	f.Add(int64(42), uint8(2), uint8(130))
	// On the edge profile this body's states first agree in every slot
	// but a completion time, so a period check that skipped completion
	// times would extrapolate the wrong period.
	f.Add(int64(-122), uint8(0x9e), uint8(4))
	profiles := equivProfiles()
	f.Fuzz(func(t *testing.T, seed int64, prof, iters uint8) {
		body := randomBody(rand.New(rand.NewSource(seed)))
		p := profiles[int(prof)%len(profiles)]
		checkEquivalent(t, p, body, 1+int(iters)%130)
		checkCyclesPerIter(t, p, body)
	})
}
