package perfmodel_test

import (
	"testing"

	pm "ookami/internal/perfmodel"
)

// TestCyclesPerIterMatchesDirectRunsOnSuite holds the steady-state
// extrapolation to the two full runs it replaces on every compiled body
// of the loop suite, at x1, x2 and x4 unrolls. ScheduleTrace simulates
// every iteration, so its Cycles are the direct runs.
func TestCyclesPerIterMatchesDirectRunsOnSuite(t *testing.T) {
	periodic := 0
	for _, sb := range suiteBodies(t) {
		for _, unroll := range []int{1, 2, 4} {
			body := sb.body.Repeat(unroll)
			_, short := sb.p.ScheduleTrace(body, pm.SteadyIters)
			_, long := sb.p.ScheduleTrace(body, 2*pm.SteadyIters)
			want := float64(long.Cycles-short.Cycles) / pm.SteadyIters
			if got := sb.p.CyclesPerIter(body); got != want {
				t.Errorf("%s x%d: CyclesPerIter %v, direct runs (%d-%d)/%d = %v",
					sb.name, unroll, got, long.Cycles, short.Cycles, pm.SteadyIters, want)
			}
			if got := sb.p.Schedule(body, 2*pm.SteadyIters); got != long.Cycles {
				t.Errorf("%s x%d: Schedule(128) %d, direct run %d", sb.name, unroll, got, long.Cycles)
			}
			if iters, _ := sb.p.SteadyPeriod(body); iters > 0 {
				periodic++
			}
		}
	}
	// Most bodies repeat early; if none did, the test above would compare
	// the direct runs with themselves.
	if periodic < 150 {
		t.Errorf("%d of 171 suite bodies found a period, want at least 150", periodic)
	}
}
