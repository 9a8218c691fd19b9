package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ookami/internal/trace"
)

// maxKeptSpans bounds the spans a traced run keeps for the trace file;
// later spans still count toward the metrics and self times, and the
// file reports them as dropped.
const maxKeptSpans = 50000

// span is one timed call into a layer. Spans of one request or pass
// share op; parent is the enclosing span's id (0 for a root).
type span struct {
	layer, name string
	id, parent  int64
	op          int64
	tid         int
	start, end  time.Duration // since the recorder's epoch
	children    time.Duration // part of [start, end) covered by child spans
	up          *span
}

// recorder holds a traced run's spans in memory until the run ends. A
// nil *recorder records nothing, so untraced rounds run the same code.
type recorder struct {
	region string
	epoch  time.Time

	mu      sync.Mutex
	nextID  int64
	nextOp  int64
	kept    []span
	dropped int64
	durs    map[string][]time.Duration // span name -> every duration
	self    map[string]time.Duration   // layer -> summed self time
	count   map[string]int64           // layer -> spans
}

func newRecorder(region string) *recorder {
	return &recorder{
		region: region,
		epoch:  time.Now(),
		durs:   map[string][]time.Duration{},
		self:   map[string]time.Duration{},
		count:  map[string]int64{},
	}
}

// newOp allocates the id an operation's spans share.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// begin opens a span named "<layer>.<what>" under parent (nil: a root
// span of operation op).
func (r *recorder) begin(layer, what string, parent *span, op int64, tid int) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	s := &span{layer: layer, name: layer + "." + what, id: id, op: op, tid: tid, up: parent}
	if parent != nil {
		s.parent, s.op = parent.id, parent.op
	}
	s.start = time.Since(r.epoch)
	return s
}

// end closes s and returns its duration (0 for an untraced nil span).
func (r *recorder) end(s *span) time.Duration {
	if r == nil || s == nil {
		return 0
	}
	s.end = time.Since(r.epoch)
	d := s.end - s.start
	if s.up != nil {
		s.up.children += d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durs[s.name] = append(r.durs[s.name], d)
	r.self[s.layer] += d - s.children
	r.count[s.layer]++
	if len(r.kept) < maxKeptSpans {
		r.kept = append(r.kept, *s)
	} else {
		r.dropped++
	}
	return d
}

// timed runs fn inside a span; the returned duration is measured either
// way, so untraced callers get the same timing.
func (r *recorder) timed(layer, what string, parent *span, op int64, fn func()) time.Duration {
	s := r.begin(layer, what, parent, op, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(s)
	return d
}

// durations returns every recorded duration of the named span.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return seconds(r.durs[name])
}

// spanMetric reports the median duration of a span name in unit ("ms"
// or "us") under the metric name "<span>_<unit>".
func (r *recorder) spanMetric(name, unit string, put putFunc) {
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}[unit]
	put(name+"_"+unit, median(r.durations(name))*scale, unit)
}

// modules are the layers the self-time metrics cover.
var modules = []string{"serve", "parexec", "explain", "toolchain", "perfmodel", "figures", "kernels"}

// selfTimes reports each layer's summed self time: span durations minus
// the part their child spans cover.
func (r *recorder) selfTimes(put putFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range modules {
		put("self."+m+"_s", r.self[m].Seconds(), "s")
	}
}

// writeFile writes the kept spans in the internal/trace file format, so
// `ookami-trace summary|cat FILE` reads them. Each span carries its id,
// parent and op in args; per-layer self time and span counts are
// counters, which the summary lists.
func (r *recorder) writeFile(path string) (kept int, dropped int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := &trace.Trace{Dropped: r.dropped, Wall: int64(time.Since(r.epoch))}
	for _, s := range r.kept {
		tr.Events = append(tr.Events, trace.Event{
			TS:     int64(s.start),
			Dur:    int64(s.end - s.start),
			Ph:     trace.PhaseSpan,
			TID:    s.tid,
			Cat:    s.layer,
			Name:   s.name,
			Region: r.region,
			Args:   [3]trace.Arg{{Key: "id", Val: s.id}, {Key: "parent", Val: s.parent}, {Key: "op", Val: s.op}},
		})
	}
	trace.SortEvents(tr.Events)
	layers := make([]string, 0, len(r.self))
	for l := range r.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		tr.Counters = append(tr.Counters,
			trace.Counter{Cat: "perfbench", Name: "self_ns." + l, TID: trace.RegionTID, Val: int64(r.self[l])},
			trace.Counter{Cat: "perfbench", Name: "spans." + l, TID: trace.RegionTID, Val: r.count[l]})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, fmt.Errorf("trace dir: %w", err)
	}
	return len(r.kept), r.dropped, tr.WriteFile(path)
}
