package perfmodel

// Scheduler introspection: the shared scheduler core of sched.go, run
// once and read back as the full issue trace and a utilization summary —
// the tool for understanding *why* a kernel costs what it costs (which
// pipe saturates, how much of the window is dependence-stalled).

// IssueEvent records one instruction's passage through the model.
type IssueEvent struct {
	Iter  int // iteration index
	Index int // instruction index within the body
	Op    Op
	Issue int // cycle issued
	Done  int // cycle result available
}

// Utilization summarizes a scheduled run.
type Utilization struct {
	Cycles       int
	Instructions int
	// PipeBusy counts busy pipe-cycles per pipe kind (FP, load, store, int).
	FPBusy, LoadBusy, StoreBusy, IntBusy int
	// IPC is instructions per cycle over the run.
	IPC float64
}

// ScheduleTrace simulates iters iterations of body and returns the issue
// trace plus utilization. It runs the same core as Schedule, so
// util.Cycles always equals Schedule(body, iters).
func (p *Profile) ScheduleTrace(body Body, iters int) ([]IssueEvent, Utilization) {
	if len(body) == 0 || iters == 0 {
		return nil, Utilization{}
	}
	return newSchedCore(p, body, iters).traced(iters)
}

// SteadyTrace returns ScheduleTrace(body, SteadyIters) together with
// CyclesPerIter(body). The traced run is CyclesPerIter's shorter one, so
// only the longer one is simulated on top of it.
func (p *Profile) SteadyTrace(body Body) ([]IssueEvent, Utilization, float64) {
	if len(body) == 0 {
		return nil, Utilization{}, 0
	}
	s := newSchedCore(p, body, 2*SteadyIters)
	events, util := s.traced(SteadyIters)
	tg := [1]target{{iters: 2 * SteadyIters}}
	if !s.steady(tg[:]) {
		tg[0].t = s.run(2*SteadyIters, nil)
	}
	return events, util, float64(tg[0].t-util.Cycles) / SteadyIters
}

// traced runs iters iterations recording every instruction's issue.
func (s *schedCore) traced(iters int) ([]IssueEvent, Utilization) {
	n := len(s.body)
	done := make([]int, n*iters)
	last := s.run(iters, done)
	events := make([]IssueEvent, len(done))
	var util Utilization
	for gi, d := range done {
		op := s.body[gi%n].Op
		c := s.costs[op]
		events[gi] = IssueEvent{
			Iter: gi / n, Index: gi % n, Op: op,
			Issue: d - c.Latency, Done: d,
		}
		switch pipeTab[op] {
		case pipeFP:
			util.FPBusy += c.Occupancy
		case pipeLoad:
			util.LoadBusy += c.Occupancy
		case pipeStore:
			util.StoreBusy += c.Occupancy
		default:
			util.IntBusy += c.Occupancy
		}
	}
	util.Cycles = last
	util.Instructions = len(events)
	if last > 0 {
		util.IPC = float64(len(events)) / float64(last)
	}
	return events, util
}
