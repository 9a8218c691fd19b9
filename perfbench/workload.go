package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// env is what every workload's setup receives: where the checkout is,
// and the seed its inputs derive from.
type env struct {
	root string
	seed int64
}

// A workload builds an instance; building it is the set-up that setup_s
// times (inputs, expected outputs, warm-up).
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// round runs one unit of the closed loop (a pass, or a time slice
	// for request traffic) and reports what it did. rec is nil on
	// untraced rounds.
	round(rec *recorder) roundResult
	// verify checks outputs outside the timed region and returns the
	// number of failed operations it found.
	verify() int64
	// named reports the workload's own end-to-end quantities under the
	// names README.md uses, from the untraced rounds.
	named(t *tally) []namedValue
	// layers reports per-layer metrics only this instance can see
	// (memo counters), on traced runs.
	layers(rec *recorder, put putFunc)
}

type putFunc func(name string, value float64, unit string)

type namedValue struct {
	name  string
	value float64
	unit  string
}

// roundResult is one round: wall time and the latency of each op.
type roundResult struct {
	wall   time.Duration
	ops    []time.Duration
	failed int64
}

// tally accumulates rounds of one kind (traced or untraced).
type tally struct {
	wall       time.Duration
	ops        []time.Duration
	ok, failed int64
	rates      []float64 // successful ops per second of each round
}

func (t *tally) add(r roundResult) {
	t.wall += r.wall
	t.ops = append(t.ops, r.ops...)
	t.ok += int64(len(r.ops)) - r.failed
	t.failed += r.failed
	if r.wall > 0 {
		t.rates = append(t.rates, float64(int64(len(r.ops))-r.failed)/r.wall.Seconds())
	}
}

// rate is successful ops per second of round wall time.
func (t *tally) rate() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.ok) / t.wall.Seconds()
}

// roundRate is the median over rounds of each round's rate. A burst of
// load from outside the process slows a few rounds; it moves this
// median less than the run's overall rate.
func (t *tally) roundRate() float64 { return median(t.rates) }

func (t *tally) latencies() []float64 { return seconds(t.ops) }

var workloads = []workload{
	{name: "figures", setup: setupFigures},
	{name: "predict-mix", setup: setupPredict},
	{name: "kernels", setup: setupKernels},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile is the nearest-rank q-quantile (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hostRefIters sizes the host reference loop to a few milliseconds.
const hostRefIters = 1 << 21

// refSink keeps the reference loop's result observable.
var refSink uint64

// hostRef times a fixed integer/floating-point loop that depends on
// nothing but the host: its drift between runs is the machine's, not
// the program's. Reported as host.ref_ms, diagnostic only.
func hostRef() float64 {
	t0 := time.Now()
	x, f := uint64(0x9e3779b97f4a7c15), 1.0
	for i := 0; i < hostRefIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x&1023)*1e-9
	}
	refSink += x + uint64(f)
	return time.Since(t0).Seconds()
}
