package main

import (
	"ookami/internal/explain"
	"ookami/internal/npb"
	"ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// probeRequests is how many requests the serve probe sends when the
// traced workload is not predict-mix.
const probeRequests = 400

// modelSink keeps probed model results observable.
var modelSink float64

// probeLayers completes a traced run: it times the model core's public
// functions directly on the predict-mix query space, and gives the
// layers this workload bypasses one short traced pass of their own, so
// every per-layer metric is reported on every workload. It returns the
// ops the probes attempted and how many of them failed, checked as the
// timed phase checks its own: a probe pass that produces a wrong output
// makes the run incorrect.
func probeLayers(workload string, e *env, rec *recorder, put putFunc) (attempted, failed int64, err error) {
	attempted, failed = probeModel(rec)
	for _, name := range []string{"explain.key", "explain.predict_app", "toolchain.compile", "perfmodel.node_time"} {
		rec.spanMetric(name, "us", put)
	}
	for _, name := range []string{"explain.predict_loop", "perfmodel.cycles_per_iter"} {
		rec.spanMetric(name, "ms", put)
	}
	for _, w := range workloads {
		if w.name == workload {
			continue
		}
		inst, err := w.setup(e)
		if err != nil {
			return 0, 0, err
		}
		if p, ok := inst.(*predictRun); ok {
			c := p.clients[0]
			for i := 0; i < probeRequests; i++ {
				p.send(c, rec)
			}
			attempted += probeRequests
			failed += c.non200 + c.diverged
			p.non200 += c.non200
		} else {
			r := inst.round(rec)
			attempted += int64(len(r.ops))
			failed += r.failed
		}
		failed += inst.verify()
		inst.layers(rec, put)
	}
	return attempted, failed, nil
}

// probeModel calls the model core once per tuple of the query space:
// for every cold loop tuple toolchain.Compile, Profile.CyclesPerIter on
// the compiled body and an uncached explain.Predict; for every hot tuple
// Request.Key, and for the app tuples an uncached explain.Predict and
// perfmodel.NodeTime. The calls of one tuple share an op. Each tuple is
// one attempted op, failed if a call returns an error on it.
func probeModel(rec *recorder) (attempted, failed int64) {
	for _, req := range coldSet() {
		attempted++
		op := rec.newOp()
		tc, tcOK := toolchain.ByName(req.Toolchain)
		m, mOK := explain.MachineByName(req.Machine)
		l, lOK := explain.FindLoop(req.Kernel)
		if !tcOK || !mOK || !lOK {
			failed++
			continue
		}
		var c toolchain.CompiledLoop
		rec.timed("toolchain", "compile", nil, op, func() { c = tc.Compile(l, m) })
		if prof, ok := perfmodel.ProfileFor(m.Name); ok && c.Vectorized {
			rec.timed("perfmodel", "cycles_per_iter", nil, op, func() { modelSink += prof.CyclesPerIter(c.Body) })
		}
		req.Elems = coldElemsBase - 1
		var err error
		rec.timed("explain", "predict_loop", nil, op, func() { _, err = explain.Predict(req) })
		if err != nil {
			failed++
		}
	}
	for _, t := range hotSet() {
		attempted++
		op := rec.newOp()
		req := t.req
		var keyErr, predErr error
		rec.timed("explain", "key", nil, op, func() { _, keyErr = req.Key() })
		if keyErr != nil {
			failed++
			continue
		}
		if t.kind != appInCores && t.kind != appAboveCores {
			continue
		}
		rec.timed("explain", "predict_app", nil, op, func() { _, predErr = explain.Predict(req) })
		tc, tcOK := toolchain.ByName(req.Toolchain)
		m, mOK := explain.MachineByName(req.Machine)
		st, stOK := npb.StatsByName(req.Kernel, npb.ClassC)
		if predErr != nil || !tcOK || !mOK || !stOK {
			failed++
			continue
		}
		app, exec := st.AppProfile(req.Kernel), explain.ExecFor(tc, m, st.VecFrac)
		threads := min(req.Threads, m.Cores)
		rec.timed("perfmodel", "node_time", nil, op, func() { modelSink += perfmodel.NodeTime(m, app, exec, threads) })
	}
	return attempted, failed
}
