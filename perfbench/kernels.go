package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"ookami/internal/bench"

	// The kernel packages register their workloads from init functions.
	_ "ookami/internal/blas"
	_ "ookami/internal/fft"
	_ "ookami/internal/hpcc"
	_ "ookami/internal/loops"
	_ "ookami/internal/lulesh"
	_ "ookami/internal/npb"
	_ "ookami/internal/stencil"
	_ "ookami/internal/vmath"
)

// microSuites are the registry suites of the Section III loop suite and
// the Section IV vmath kernels; every other suite is an application
// kernel (NPB, LULESH, BLAS, FFT, HPCC, stencil).
var microSuites = map[string]bool{"loops": true, "vmath": true}

// kernelsRun is the kernels workload: every bench.All() workload's
// Setup runs once, then each round is one pass invoking every timed
// closure once, in a seeded order. The closures are the registry's own,
// NPB verification included, so no kernel is defined twice.
type kernelsRun struct {
	ws     []bench.Workload
	fns    []func() // nil where Setup failed
	rng    *rand.Rand
	failed int64           // set-up and warm-up failures
	apps   []time.Duration // per untraced pass
	micro  []time.Duration
}

func setupKernels(e *env) (instance, error) {
	k := &kernelsRun{ws: bench.All(), rng: rand.New(rand.NewSource(e.seed))}
	if len(k.ws) == 0 {
		return nil, fmt.Errorf("no kernels registered")
	}
	for _, w := range k.ws {
		fn, err := setupOne(w)
		if err != nil {
			k.failed++
		}
		k.fns = append(k.fns, fn)
	}
	// Warm-up pass, as the registry runner does before sampling.
	r, _, _ := k.pass(nil)
	k.failed += r.failed
	return k, nil
}

// setupOne runs a registry Setup, turning a panic into an error.
func setupOne(w bench.Workload) (fn func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			fn, err = nil, fmt.Errorf("%s setup panicked: %v", w.Name, r)
		}
	}()
	return w.Setup()
}

// invoke runs one timed closure, isolating a panic (a failed NPB
// verification panics) as a failed op.
func invoke(fn func()) (ok bool) {
	if fn == nil {
		return false
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	fn()
	return true
}

func (k *kernelsRun) round(rec *recorder) roundResult {
	r, apps, micro := k.pass(rec)
	if rec == nil {
		k.apps = append(k.apps, apps)
		k.micro = append(k.micro, micro)
	}
	return r
}

// pass invokes every closure once and also returns the time spent in
// application and in micro kernels.
func (k *kernelsRun) pass(rec *recorder) (r roundResult, apps, micro time.Duration) {
	op := rec.newOp()
	t0 := time.Now()
	root := rec.begin("kernels", "pass", nil, op, 0)
	for _, i := range k.rng.Perm(len(k.ws)) {
		var ok bool
		d := rec.timed("kernels", spanName(k.ws[i].Name), root, op, func() { ok = invoke(k.fns[i]) })
		r.ops = append(r.ops, d)
		if !ok {
			r.failed++
		}
		if microSuites[suiteOf(k.ws[i].Name)] {
			micro += d
		} else {
			apps += d
		}
	}
	rec.end(root)
	r.wall = time.Since(t0)
	return r, apps, micro
}

func (k *kernelsRun) verify() int64 { return k.failed } // timed ops are checked as they run

func (k *kernelsRun) named(t *tally) []namedValue {
	return []namedValue{
		{"kernels_apps_s", median(seconds(k.apps)), fmt.Sprintf("s (n=%d passes)", len(k.apps))},
		{"kernels_micro_s", median(seconds(k.micro)), fmt.Sprintf("s (n=%d passes)", len(k.micro))},
	}
}

// layers reports each registry workload's median time and the computed
// rates of the two kernels whose work is a known count: DGEMM's 2n^3
// flops and STREAM's 80n bytes (copy 16, scale 16, add 24, triad 24
// bytes per element), over the whole closure's time.
func (k *kernelsRun) layers(rec *recorder, put putFunc) {
	for _, w := range k.ws {
		rec.spanMetric("kernels."+spanName(w.Name), "us", put)
	}
	rate := func(name string, work func(n float64) float64, metric, unit string) {
		w, ok := bench.Lookup(name)
		if !ok {
			return
		}
		n, _ := strconv.ParseFloat(w.Params["n"], 64)
		put(metric, work(n)/median(rec.durations("kernels."+spanName(name)))/1e9, unit)
	}
	rate("blas/dgemm-packed", func(n float64) float64 { return 2 * n * n * n }, "kernels.blas.dgemm-packed_gflops", "GFLOP/s")
	rate("hpcc/stream", func(n float64) float64 { return 80 * n }, "kernels.hpcc.stream_gbs", "GB/s")
}

func suiteOf(name string) string {
	s, _, _ := strings.Cut(name, "/")
	return s
}

// spanName turns "suite/kernel" into "suite.kernel".
func spanName(workload string) string { return strings.Replace(workload, "/", ".", 1) }
