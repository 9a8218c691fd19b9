package perfmodel

import (
	"fmt"
	"math"
	"math/bits"
)

// The windowed out-of-order scheduler. It executes N copies of a loop body
// against a Profile, modelling:
//
//   - issue width (instructions per cycle, all pipes combined),
//   - per-kind pipe counts, with FDIV/FSQRT restricted to FP pipe 0
//     (as on A64FX's FLA and Skylake's port 0),
//   - pipe occupancy (a 134-cycle blocking FSQRT holds its pipe),
//   - result latency and true data dependences, including loop-carried ones,
//   - a finite reorder window: only Window instructions may be in flight,
//     entering in program order — the small A64FX window is why Horner
//     chains hurt it more than Skylake and why unrolling pays (Sec. IV).
//
// The model is deliberately simple — no renaming limits, perfect branch
// prediction, all loads hit L1 (the paper sizes the loop suite to L1) —
// but every cycles-per-element number in Figures 1-2 and the Section IV
// table is produced by this simulation.
//
// The machine it models is clocked: each cycle, completed instructions
// retire in order from the window head, the window admits new ones, and
// the ready instructions issue oldest-first up to the issue width, each to
// the first free pipe of its kind. The simulation is event-driven but
// gives exactly the cycle-by-cycle answer:
//
//   - Dependences are flat CSR consumer lists over the body. Each
//     instruction counts its unissued deps and keeps its ready time (the
//     latest done of its issued deps). When the last dep issues it enters
//     a min-heap keyed by (ready time, index); when due it moves to a ready
//     set, one bitmap per issue class, that the issue scan walks
//     oldest-first over the classes that still have a free pipe.
//   - Instruction state lives in a ring just large enough for the window
//     and the consumers it can reach, so a run allocates the same few
//     small buffers however many iterations it simulates.
//   - Cycles that cannot change anything are skipped: unless the issue
//     width was used up, the clock jumps to the earliest of the heap head,
//     the next pipe release, and the window head's completion (retiring it
//     admits new work).
//   - A loop reaches a steady state within a few iterations, and from
//     then on repeats it; steady (steady.go) detects the repeat and
//     extrapolates instead of simulating it.
//
// Schedule, CyclesPerIter and ScheduleTrace all run on this one core.

// maxCycles caps one simulation. A run that still has unissued
// instructions when the clock reaches it panics rather than report a
// truncated completion time.
const maxCycles = 1 << 26

// readyItem is a heap entry: instruction g becomes ready at cycle at.
type readyItem struct {
	at int
	g  int32
}

// readyHeap is a binary min-heap ordered by (at, g).
type readyHeap []readyItem

func (h *readyHeap) less(i, j int) bool {
	a, b := (*h)[i], (*h)[j]
	return a.at < b.at || (a.at == b.at && a.g < b.g)
}

func (h *readyHeap) push(it readyItem) {
	*h = append(*h, it)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *readyHeap) pop() int32 {
	s := *h
	top := s[0].g
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Issue classes split the pipe kinds once more: FDIV/FSQRT need FP pipe 0
// itself, other FP ops any free FP pipe. A class is free in a cycle when
// an instruction of it would find a pipe.
const (
	clsDiv      = int(numPipeKinds) // classes below it equal their pipeKind
	numClasses  = clsDiv + 1
	allClasses  = 1<<numClasses - 1
	wordBits    = 64
	wordBitsLog = 6
)

// classTab maps every Op to its issue class.
var classTab = func() [numOps]int {
	var t [numOps]int
	for o := range t {
		t[o] = int(pipeTab[o])
	}
	t[FDIV], t[FSQRT] = clsDiv, clsDiv
	return t
}()

// schedCore is the scratch of one scheduler: the body's dependence graph
// in CSR form plus the state of the instructions in flight. It is local
// to one call, so runs reuse it without sharing.
type schedCore struct {
	p     *Profile
	body  Body
	costs *[numOps]Cost

	// Consumers of body instruction i are cons[consStart[i]:consStart[i+1]],
	// relative to i's iteration base: e < n is instruction e of the same
	// iteration, e >= n is instruction e-n of the next one (a carried dep).
	consStart []int32
	cons      []int32

	// Per-instruction state lives in a ring indexed by global index
	// (k*n+i) & mask. Only the window and the two body lengths past its
	// tail, where consumers of in-window instructions can sit, are live,
	// and the ring is sized to hold them, so state stays small however
	// many iterations run.
	mask int
	ring []slotState

	heap readyHeap
	// ready holds one bit per due, in-window instruction, one ring bitmap
	// per issue class; anyReady is their union and nready counts its bits.
	ready    [numClasses][]uint64
	anyReady []uint64
	nready   int
	// busy holds each pipe's busy-until cycle, per kind; pipes is the
	// flat array the kinds slice.
	busy  [numPipeKinds][]int
	pipes []int

	// The run in progress, kept here between advance calls: total
	// instructions, the oldest in-flight one, the next to enter the
	// window, the next whose slot is not yet initialized, the clock,
	// instructions left to issue, the latest completion, and the cycle
	// of the latest loop top (a finished run's last loop top issued its
	// final instruction). advance stops at the first loop top where head
	// has reached checkAt.
	total, head, tail, front int
	cycle, left, last, top   int
	checkAt                  int

	// snaps are steady's saved states: a period candidate and a fork.
	// probe is the slot where a comparison with the candidate last
	// failed; period and periodCycles are the repeat found, 0 if none.
	snaps                [2]snapshot
	probe                int
	period, periodCycles int
}

// slotState is one in-flight instruction's state.
type slotState struct {
	op      uint8 // the instruction's Op
	pending int32 // deps not yet issued
	readyAt int   // latest done over the issued deps
	done    int   // cycle the result is available; -1 = not issued
}

// newSchedCore validates body and builds a scheduler for it on p, for runs
// of up to maxIters iterations.
func newSchedCore(p *Profile, body Body, maxIters int) *schedCore {
	if !body.Validate() {
		panic("perfmodel: invalid body")
	}
	n := len(body)
	s := &schedCore{p: p, body: body, costs: p.costTab}
	if s.costs == nil {
		// A profile built outside ProfileFor gets a run-local table,
		// never cached back: the scheduler writes no shared state.
		s.costs = p.buildCostTable()
	}
	s.consStart = make([]int32, n+1)
	for _, ins := range body {
		for _, d := range ins.Deps {
			s.consStart[d+1]++
		}
		for _, c := range ins.Carried {
			s.consStart[c+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.consStart[i+1] += s.consStart[i]
	}
	// Fill each list through its start as a cursor; afterwards each start
	// has moved to the next list's start, so shift them back by one.
	s.cons = make([]int32, s.consStart[n])
	for j, ins := range body {
		for _, d := range ins.Deps {
			s.cons[s.consStart[d]] = int32(j)
			s.consStart[d]++
		}
		for _, c := range ins.Carried {
			s.cons[s.consStart[c]] = int32(n + j)
			s.consStart[c]++
		}
	}
	copy(s.consStart[1:], s.consStart[:n])
	s.consStart[0] = 0
	// The ring holds the window plus two body lengths, and at least a
	// bitmap word more than the window, so no two live instructions share
	// a slot and no two live bitmap words share a ring word. A window
	// wider than the whole run holds the whole run.
	window := max(0, min(p.Window, n*maxIters))
	size := wordBits
	for size < window+max(2*n, wordBits) {
		size *= 2
	}
	s.mask = size - 1
	s.ring = make([]slotState, size)
	s.heap = make(readyHeap, 0, window)
	words := size / wordBits
	bitmaps := make([]uint64, (numClasses+1)*words)
	for c := range s.ready {
		s.ready[c], bitmaps = bitmaps[:words:words], bitmaps[words:]
	}
	s.anyReady = bitmaps
	s.pipes = make([]int, p.FPPipes+p.LoadPipes+p.StorePipes+p.IntPipes)
	slots := s.pipes
	for k := pipeKind(0); k < numPipeKinds; k++ {
		c := p.pipes(k)
		s.busy[k], slots = slots[:c:c], slots[c:]
	}
	return s
}

// runStatus says why advance returned.
type runStatus int

const (
	runDone       runStatus = iota // every instruction has issued
	runCheckpoint                  // head reached checkAt
	runCapped                      // the clock reached maxCycles with work left
)

// start begins a run of iters iterations that stops nowhere on the way.
func (s *schedCore) start(iters int) {
	for c := range s.ready {
		clear(s.ready[c])
	}
	clear(s.anyReady)
	clear(s.pipes)
	s.heap = s.heap[:0]
	s.nready = 0
	s.total = len(s.body) * iters
	s.head, s.tail, s.front = 0, 0, 0
	s.cycle, s.left, s.last, s.top = 0, s.total, 0, 0
	s.checkAt = math.MaxInt
}

// run simulates iters iterations, at most the maxIters the core was built
// for, and returns the cycle the last result is available. A non-nil trace
// (of length n*iters) receives every instruction's completion cycle.
func (s *schedCore) run(iters int, trace []int) int {
	s.start(iters)
	if s.advance(trace) == runCapped {
		panic(fmt.Sprintf("perfmodel: %s: %d-instruction body over %d iterations still has %d of %d instructions unissued at the %d-cycle cap",
			s.p.Name, len(s.body), iters, s.left, s.total, maxCycles))
	}
	return s.last
}

// advance simulates from the current loop top until every instruction has
// issued, the clock reaches maxCycles, or head reaches checkAt. That last
// test comes right after retirement, before the loop top changes anything
// else, so a caller may inspect or change the run there (its total, say)
// and call advance again: retiring twice in a cycle is a no-op.
func (s *schedCore) advance(trace []int) runStatus {
	p, n, mask, total := s.p, len(s.body), s.mask, s.total
	head, tail, front := s.head, s.tail, s.front
	cycle, left, last, top := s.cycle, s.left, s.last, s.top
	status := runDone
	for left > 0 {
		if cycle >= maxCycles {
			status = runCapped
			break
		}
		// Retire completed instructions in order.
		for head < tail && s.ring[head&mask].done >= 0 && s.ring[head&mask].done <= cycle {
			head++
		}
		if head >= s.checkAt {
			status = runCheckpoint
			break
		}
		top = cycle
		// Initialize the ring slots that the window, once refilled, and
		// its consumers can reach; the slots they reuse belong to retired
		// instructions. Then admit new instructions while there is room.
		for ; front < min(total, head+p.Window+2*n); front++ {
			i := front % n
			ins := &s.body[i]
			deps := len(ins.Deps)
			if front >= n {
				deps += len(ins.Carried)
			}
			s.ring[front&mask] = slotState{op: uint8(ins.Op), pending: int32(deps), done: -1}
		}
		for ; tail < total && tail-head < p.Window; tail++ {
			if s.ring[tail&mask].pending == 0 {
				s.makeReady(tail, cycle)
			}
		}
		for len(s.heap) > 0 && s.heap[0].at <= cycle {
			s.setReady(int(s.heap.pop()))
		}

		// Issue ready instructions oldest-first up to the issue width.
		// Only classes with a free pipe are searched, so every instruction
		// found issues; those of busy classes wait, as they would on a
		// full scan.
		issued := 0
		free := s.freeClasses(cycle)
		for g := head; issued < p.IssueWidth && free != 0; g++ {
			if g = s.nextReady(g, tail, free); g < 0 {
				break
			}
			at := g & mask
			op := Op(s.ring[at].op)
			cls := classTab[op]
			slots := s.busy[pipeTab[op]]
			slot := 0
			if cls != clsDiv {
				// Divider ops live on FP pipe 0 only; the rest take the
				// first free pipe, which skips a pipe 0 a divider holds.
				for slots[slot] > cycle {
					slot++
				}
			}
			c := s.costs[op]
			slots[slot] = cycle + c.Occupancy
			d := cycle + c.Latency
			s.ring[at].done = d
			if trace != nil {
				trace[g] = d
			}
			last = max(last, d)
			w, bit := at>>wordBitsLog, uint64(1)<<(at&(wordBits-1))
			s.ready[cls][w] &^= bit
			s.anyReady[w] &^= bit
			s.nready--
			issued++
			left--
			free = s.freeClasses(cycle)
			i := g % n
			base := g - i
			for _, e := range s.cons[s.consStart[i]:s.consStart[i+1]] {
				j := base + int(e)
				if j >= total {
					continue
				}
				js := &s.ring[j&mask]
				js.readyAt = max(js.readyAt, d)
				// A zero-latency result readies j in this cycle; j is
				// younger than g, so the scan still reaches it.
				if js.pending--; js.pending == 0 && j < tail {
					s.makeReady(j, cycle)
				}
			}
		}

		if issued == p.IssueWidth {
			cycle++
			continue
		}
		// Whatever is still ready waits for a pipe, so nothing changes
		// until a pipe frees up, a dep's result lands, or the window head
		// completes (retiring it admits new work): jump to the earliest.
		next := maxCycles
		if len(s.heap) > 0 {
			next = s.heap[0].at
		}
		if s.nready > 0 {
			for _, b := range s.pipes {
				if b > cycle {
					next = min(next, b)
				}
			}
		}
		if d := s.ring[head&mask].done; tail < total && d >= 0 {
			next = min(next, max(d, cycle+1))
		}
		cycle = next
	}
	s.head, s.tail, s.front = head, tail, front
	s.cycle, s.left, s.last, s.top = cycle, left, last, top
	return status
}

// freeClasses returns the mask of issue classes with a free pipe at cycle.
func (s *schedCore) freeClasses(cycle int) int {
	free := 0
	for k := range s.busy {
		if s.kindFree(pipeKind(k), cycle) {
			free |= 1 << k
		}
	}
	if fp := s.busy[pipeFP]; len(fp) > 0 && fp[0] <= cycle {
		free |= 1 << clsDiv
	}
	return free
}

// kindFree reports whether a pipe of kind k is free at cycle.
func (s *schedCore) kindFree(k pipeKind, cycle int) bool {
	for _, b := range s.busy[k] {
		if b <= cycle {
			return true
		}
	}
	return false
}

// nextReady returns the oldest ready instruction at index >= from and
// below tail whose class is in the free mask, or -1. The window spans
// fewer ring words than the ring has, so each global word it covers maps
// to a ring word holding only that word's instructions.
func (s *schedCore) nextReady(from, tail, free int) int {
	wmask := s.mask >> wordBitsLog
	bits0 := ^uint64(0) << (from & (wordBits - 1))
	for w := from >> wordBitsLog; w<<wordBitsLog < tail; w++ {
		rw := w & wmask
		word := s.anyReady[rw] & bits0
		for busy, c := allClasses&^free, 0; busy != 0 && word != 0; busy, c = busy>>1, c+1 {
			if busy&1 != 0 {
				word &^= s.ready[c][rw]
			}
		}
		if word != 0 {
			return w<<wordBitsLog + bits.TrailingZeros64(word)
		}
		bits0 = ^uint64(0)
	}
	return -1
}

// makeReady files instruction g, whose deps have all issued, as due now
// or, keyed by its ready time, in the heap.
func (s *schedCore) makeReady(g, cycle int) {
	if at := s.ring[g&s.mask].readyAt; at > cycle {
		s.heap.push(readyItem{at: at, g: int32(g)})
		return
	}
	s.setReady(g)
}

// setReady marks instruction g due.
func (s *schedCore) setReady(g int) {
	at := g & s.mask
	w, bit := at>>wordBitsLog, uint64(1)<<(at&(wordBits-1))
	s.ready[classTab[s.ring[at].op]][w] |= bit
	s.anyReady[w] |= bit
	s.nready++
}

// Schedule simulates iters iterations of body and returns the total cycles
// until the last instruction's result is available. It panics if the body
// is invalid or the run does not finish issuing within maxCycles.
//
//ookami:pure scheduler operates on local state only
func (p *Profile) Schedule(body Body, iters int) int {
	if len(body) == 0 || iters == 0 {
		return 0
	}
	s := newSchedCore(p, body, iters)
	tg := [1]target{{iters: iters}}
	if !s.steady(tg[:]) {
		return s.run(iters, nil)
	}
	return tg[0].t
}

// SteadyIters is the length of CyclesPerIter's shorter run; the longer
// one is twice as long.
const SteadyIters = 64

// CyclesPerIter returns the steady-state cycles per loop iteration,
// measured by differencing two long runs to cancel fill/drain effects.
//
//ookami:pure
func (p *Profile) CyclesPerIter(body Body) float64 {
	if len(body) == 0 {
		return 0
	}
	s := newSchedCore(p, body, 2*SteadyIters)
	tg := [2]target{{iters: SteadyIters}, {iters: 2 * SteadyIters}}
	if !s.steady(tg[:]) {
		// A run hits the cycle cap: rerun both in order, so the panic
		// names the first that does.
		tg[0].t, tg[1].t = s.run(SteadyIters, nil), s.run(2*SteadyIters, nil)
	}
	return float64(tg[1].t-tg[0].t) / SteadyIters
}

// CyclesPerElement is CyclesPerIter divided by the number of elements one
// iteration processes (vector lanes x unroll factor).
//
//ookami:pure
func (p *Profile) CyclesPerElement(body Body, elemsPerIter int) float64 {
	if elemsPerIter <= 0 {
		panic("perfmodel: elemsPerIter must be positive")
	}
	return p.CyclesPerIter(body) / float64(elemsPerIter)
}

// SecondsFor converts a cycles-per-element figure into runtime for n
// elements at the profile's clock.
//
//ookami:pure
func (p *Profile) SecondsFor(cyclesPerElem float64, n int) float64 {
	return cyclesPerElem * float64(n) / (p.ClockGHz * 1e9)
}
