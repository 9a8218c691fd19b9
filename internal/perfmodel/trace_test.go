package perfmodel

import "testing"

func TestScheduleTraceMatchesSchedule(t *testing.T) {
	// The instrumented simulation must reach the same total-cycle result
	// as the plain one for a variety of bodies.
	bodies := []Body{
		{I(LOAD), I(FMA, 0), I(STORE, 1)},
		{IC(FMA, nil, []int{0})},
		{I(LOAD), I(FSQRT, 0), I(STORE, 1)},
		{I(FMA), I(FMA), I(FMA), I(FMA), I(INT), I(BRANCH)},
	}
	for _, p := range []*Profile{&A64FXProfile, &SkylakeProfile} {
		for bi, body := range bodies {
			want := p.Schedule(body, 32)
			_, util := p.ScheduleTrace(body, 32)
			if util.Cycles != want {
				t.Errorf("%s body %d: trace %d cycles, schedule %d",
					p.Name, bi, util.Cycles, want)
			}
		}
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	p := A64FXProfile
	body := Body{I(LOAD), I(FMA, 0), I(FMUL, 1), I(STORE, 2)}
	events, util := p.ScheduleTrace(body, 8)
	if len(events) != len(body)*8 {
		t.Fatalf("event count %d", len(events))
	}
	for gi, e := range events {
		if e.Done < e.Issue {
			t.Fatalf("event %d: done %d before issue %d", gi, e.Done, e.Issue)
		}
		if e.Iter != gi/len(body) || e.Index != gi%len(body) {
			t.Fatalf("event %d mislabeled: %+v", gi, e)
		}
	}
	// Dependences respected: FMA must issue after its LOAD's done.
	for it := 0; it < 8; it++ {
		load := events[it*4]
		fma := events[it*4+1]
		if fma.Issue < load.Done {
			t.Fatalf("iter %d: FMA issued at %d before LOAD done at %d",
				it, fma.Issue, load.Done)
		}
	}
	if util.Instructions != 32 || util.IPC <= 0 {
		t.Errorf("utilization %+v", util)
	}
}

func TestTraceUtilizationAccounting(t *testing.T) {
	p := A64FXProfile
	// Pure FP body: only FP pipes busy.
	_, util := p.ScheduleTrace(Body{I(FMA), I(FMA)}, 16)
	if util.FPBusy != 32 {
		t.Errorf("FP busy %d, want 32 (occupancy 1 x 32 instrs)", util.FPBusy)
	}
	if util.LoadBusy != 0 || util.StoreBusy != 0 || util.IntBusy != 0 {
		t.Errorf("other pipes should be idle: %+v", util)
	}
	// Blocking sqrt: occupancy dominates.
	_, u2 := p.ScheduleTrace(Body{I(FSQRT)}, 4)
	if u2.FPBusy != 4*134 {
		t.Errorf("FSQRT busy %d, want %d", u2.FPBusy, 4*134)
	}
}

func TestTraceEmpty(t *testing.T) {
	p := A64FXProfile
	ev, util := p.ScheduleTrace(nil, 5)
	if ev != nil || util.Cycles != 0 {
		t.Error("empty trace")
	}
}

func TestSteadyTraceSharesTheShortRun(t *testing.T) {
	// SteadyTrace is ScheduleTrace over SteadyIters plus CyclesPerIter,
	// with the traced run doing double duty; the answers must not move.
	bodies := []Body{
		{I(LOAD), I(FMA, 0), I(FMA, 1), I(STORE, 2), I(INT), I(BRANCH)},
		{IC(FMA, nil, []int{0})},
		{I(LOAD), I(FSQRT, 0), I(STORE, 1)},
	}
	for _, p := range []*Profile{&A64FXProfile, &SkylakeProfile} {
		for bi, body := range bodies {
			events, util, cpi := p.SteadyTrace(body)
			wantEv, wantUtil := p.ScheduleTrace(body, SteadyIters)
			if want := p.CyclesPerIter(body); cpi != want {
				t.Errorf("%s body %d: cycles/iter %v, want %v", p.Name, bi, cpi, want)
			}
			if util != wantUtil || len(events) != len(wantEv) {
				t.Fatalf("%s body %d: utilization %+v over %d events, want %+v over %d",
					p.Name, bi, util, len(events), wantUtil, len(wantEv))
			}
			for i := range events {
				if events[i] != wantEv[i] {
					t.Fatalf("%s body %d: event %d = %+v, want %+v", p.Name, bi, i, events[i], wantEv[i])
				}
			}
		}
	}
	if ev, util, cpi := A64FXProfile.SteadyTrace(nil); ev != nil || util.Cycles != 0 || cpi != 0 {
		t.Error("empty body should trace nothing")
	}
}

func TestExplainInvalidPanics(t *testing.T) {
	p := A64FXProfile
	defer func() {
		if recover() == nil {
			t.Error("invalid body should panic in trace")
		}
	}()
	p.ScheduleTrace(Body{I(FMA, 5)}, 2)
}
