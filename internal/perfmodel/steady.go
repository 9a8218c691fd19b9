package perfmodel

import "math"

// Steady-state extrapolation. A loop body settles into a steady state
// within a few iterations and then repeats it exactly, so simulating a
// long run mostly recomputes what is already known. steady detects the
// repeat and skips it, with exactly the answer of the full simulation.
//
// The state of a run at a loop top, after retirement, is everything the
// rest of the run depends on: the window's position in the body (head mod
// n) and extents (tail-head, front-head), each initialized slot's dep
// count, issue flag, ready time and completion, each pipe's busy-until,
// and the latest completion so far. The scheduler only ever compares a
// time with the current cycle or a later one, so the state is normalized
// by measuring every time from the current cycle and clamping at zero: a
// time already passed acts as "now" in every later comparison. If the
// state at loop top B equals the state at an earlier loop top A in that
// sense, P = (head_B-head_A)/n iterations and D = cycle_B-cycle_A cycles
// apart, then from B on the run repeats its course from A, P iterations
// and D cycles later — until the end of the run shows. A K-iteration run
// agrees with any longer one up to a loop top as long as front has not
// passed K*n there (front bounds every slot the run has touched), which
// gives, for front_B <= K*n,
//
//	T(K) = T(K-P) + D
//
// for the completion time T, and the same shift for the cycle of the
// run's last loop top, which decides whether it hits maxCycles. steady
// applies it as often as that condition allows, finishes the remaining
// short run from B by simulation, and adds the skipped periods back.
//
// Repeats are found by Brent's cycle detection over checkpoints at
// iteration boundaries and confirmed by a full comparison, never by a
// hash. A run that is asked for two lengths (CyclesPerIter's 64 and 128)
// simulates the longer one and forks off the shorter one at its last loop
// top before the two runs part: the state is saved, the short run
// finished, the state restored. A body that never repeats within a run
// therefore costs the longer run plus the short one's final window, less
// than running both.

// snapshot is a run's state at a loop top, after retirement: the live
// part of the ring (head to front) and the scalars. The ready bitmaps and
// the heap follow from it: they hold every unissued instruction in the
// window whose deps have all issued, due or not by its ready time.
type snapshot struct {
	valid                    bool
	total, head, tail, front int
	cycle, left, last, top   int
	busy                     []int
	slots                    []slotState
}

// A target is one run length steady prices. Its answer t is the
// completion time of an iters-iteration run plus add, the cycles of the
// periods skipped on the way to that run.
type target struct {
	iters, add, t int
	done          bool
}

// steady sets each target's t to Schedule(body, iters) for the iters it
// was given, at most the core's maxIters. It returns false, leaving the
// answers unset, when one of those runs would hit the cycle cap; the
// caller then reruns them plainly, so the panic names the run that fails.
func (s *schedCore) steady(tg []target) bool {
	n, window := len(s.body), s.p.Window
	live := 0
	for _, t := range tg {
		live = max(live, t.iters)
	}
	s.start(live)
	s.allocSnaps()
	period, fork := &s.snaps[0], &s.snaps[1]
	detect := true
	power, lam := 1, 1
	for {
		// The shortest target below the live run leaves its path once
		// front passes its end: fork it off at the last loop top before.
		f, forkAt := -1, math.MaxInt
		for i := range tg {
			if t := &tg[i]; !t.done && t.iters*n < s.total && (f < 0 || t.iters < tg[f].iters) {
				f, forkAt = i, t.iters*n-window-2*n+1
			}
		}
		// A period found now shortens a run only if one more iteration
		// still fits before its end.
		detect = detect && s.total-s.front >= n
		s.checkAt = forkAt
		if detect {
			s.checkAt = min(forkAt, (s.head/n+1)*n)
		}
		switch s.advance(nil) {
		case runCapped:
			return false
		case runDone:
			for i := range tg {
				if t := &tg[i]; !t.done && !s.finish(t) {
					return false
				}
			}
			return true
		}
		if s.head >= forkAt {
			fork.save(s)
			s.resize(tg[f].iters)
			s.checkAt = math.MaxInt
			if s.advance(nil) == runCapped || !s.finish(&tg[f]) {
				return false
			}
			fork.restore(s)
			continue
		}
		if period.valid && s.repeats(period) {
			p, d := (s.head-period.head)/n, s.cycle-period.cycle
			s.period, s.periodCycles = p, d
			live = 0
			for i := range tg {
				if t := &tg[i]; !t.done {
					j := (t.iters*n - s.front) / (p * n)
					t.iters -= j * p
					t.add += j * d
					live = max(live, t.iters)
				}
			}
			s.resize(live)
			detect = false
			continue
		}
		if lam == power {
			period.save(s)
			power *= 2
			lam = 0
		}
		lam++
	}
}

// finish records t's answer from the run that just finished. It reports
// false if the run t stands for would have hit the cycle cap: its last
// loop top is this run's, shifted by the skipped periods.
func (s *schedCore) finish(t *target) bool {
	t.t, t.done = s.last+t.add, true
	return s.top+t.add < maxCycles
}

// resize makes the run in progress an iters-iteration one. Nothing at or
// past the new end has been initialized yet, so none of it has issued.
func (s *schedCore) resize(iters int) {
	total := iters * len(s.body)
	s.left -= s.total - total
	s.total = total
}

// allocSnaps sizes both snapshots for the most slots a run can have
// initialized, the window plus two body lengths.
func (s *schedCore) allocSnaps() {
	n := len(s.body)
	slots := min(s.p.Window, s.total) + 2*n
	buf := make([]slotState, 2*slots)
	pipes := make([]int, 2*len(s.pipes))
	for i := range s.snaps {
		sn := &s.snaps[i]
		sn.slots, buf = buf[:0:slots], buf[slots:]
		sn.busy, pipes = pipes[:len(s.pipes):len(s.pipes)], pipes[len(s.pipes):]
	}
}

// save records s's state.
func (sn *snapshot) save(s *schedCore) {
	sn.valid = true
	sn.total, sn.head, sn.tail, sn.front = s.total, s.head, s.tail, s.front
	sn.cycle, sn.left, sn.last, sn.top = s.cycle, s.left, s.last, s.top
	copy(sn.busy, s.pipes)
	// The live slots may wrap around the ring's end.
	from := s.head & s.mask
	sn.slots = append(sn.slots[:0], s.ring[from:min(from+s.front-s.head, len(s.ring))]...)
	sn.slots = append(sn.slots, s.ring[:s.front-s.head-len(sn.slots)]...)
}

// restore puts s back into the saved state, rebuilding the ready set and
// the heap from the slots.
func (sn *snapshot) restore(s *schedCore) {
	s.total, s.head, s.tail, s.front = sn.total, sn.head, sn.tail, sn.front
	s.cycle, s.left, s.last, s.top = sn.cycle, sn.left, sn.last, sn.top
	copy(s.pipes, sn.busy)
	wrapped := copy(s.ring[s.head&s.mask:], sn.slots)
	copy(s.ring, sn.slots[wrapped:])
	for c := range s.ready {
		clear(s.ready[c])
	}
	clear(s.anyReady)
	s.heap = s.heap[:0]
	s.nready = 0
	for g := s.head; g < s.tail; g++ {
		if st := &s.ring[g&s.mask]; st.pending == 0 && st.done < 0 {
			s.makeReady(g, s.cycle)
		}
	}
}

// repeats reports whether s's state equals sn's, whole iterations later.
func (s *schedCore) repeats(sn *snapshot) bool {
	if (s.head-sn.head)%len(s.body) != 0 || s.tail-s.head != sn.tail-sn.head ||
		s.front-s.head != sn.front-sn.head {
		return false
	}
	now, then := s.cycle, sn.cycle
	if ahead(s.last, now) != ahead(sn.last, then) {
		return false
	}
	for i, b := range s.pipes {
		if ahead(b, now) != ahead(sn.busy[i], then) {
			return false
		}
	}
	// A state that drifts instead of repeating tends to differ at the
	// same slot checkpoint after checkpoint, so try the last slot that
	// differed before walking them all.
	if s.probe < len(sn.slots) && !s.sameSlot(s.probe, sn, now, then) {
		return false
	}
	for i := range sn.slots {
		if !s.sameSlot(i, sn, now, then) {
			s.probe = i
			return false
		}
	}
	return true
}

// sameSlot reports whether the i-th live slot, counted from head, is in
// the same state now as in sn then.
func (s *schedCore) sameSlot(i int, sn *snapshot, now, then int) bool {
	a, b := &s.ring[(s.head+i)&s.mask], &sn.slots[i]
	return a.pending == b.pending && (a.done < 0) == (b.done < 0) &&
		ahead(a.readyAt, now) == ahead(b.readyAt, then) &&
		(a.done < 0 || ahead(a.done, now) == ahead(b.done, then))
}

// ahead is how far time t lies after now, 0 once it has passed.
func ahead(t, now int) int { return max(t-now, 0) }

// SteadyPeriod returns the repeat that CyclesPerIter's runs of body
// settle into, in iterations and cycles, or zeros if they were simulated
// to the end without one: why a body prices fast, or does not.
func (p *Profile) SteadyPeriod(body Body) (iters, cycles int) {
	if len(body) == 0 {
		return 0, 0
	}
	s := newSchedCore(p, body, 2*SteadyIters)
	tg := [2]target{{iters: SteadyIters}, {iters: 2 * SteadyIters}}
	s.steady(tg[:])
	return s.period, s.periodCycles
}
