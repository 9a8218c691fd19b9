// Command perfbench is the repository's benchmark. One invocation runs
// one seeded workload for a fixed time and prints, as its last line, a
// JSON object with the correctness tally and the metrics:
//
//	bash perfbench/run.sh --workload predict-mix --seed 3 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	figures      full regeneration of every paper and extra artifact
//	predict-mix  POST /v1/predict against an in-process ookami-serve
//	kernels      every bench-registry kernel on the SVE emulator
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1
// the run alternates traced and untraced rounds, probes the layers the
// workload bypasses, writes the spans as an internal/trace file and
// reports the per-layer metrics instead. The benchmark times calls into
// each layer's public functions from outside; it changes no code of the
// layers it measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root holding results/
	out      string // directory for trace files
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced per-layer run, 0: end-to-end run")
	fs.StringVar(&opt.root, "root", ".", "checkout root holding results/")
	fs.StringVar(&opt.out, "out", ".bench_build/perfbench", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := lookupWorkload(opt.workload); !ok {
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, workloadNames())
	}
	if opt.seconds <= 0 {
		return opt, errors.New("--seconds must be positive")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return opt, errors.New("--trace must be 0 or 1")
	}
	opt.trace = traceFlag == 1
	return opt, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// run executes one benchmark invocation: set up, the timed closed loop
// with the host reference interleaved, verification, and (traced) the
// layer probes. Human-readable lines go to log; the caller prints the
// returned result.
func run(opt options, log io.Writer) (*result, error) {
	w, _ := lookupWorkload(opt.workload)
	e := &env{root: opt.root, seed: opt.seed}

	var inst instance
	var setups, refs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
		refs = append(refs, hostRef())
	}
	heapMB := liveHeapMB(inst)

	var rec *recorder
	if opt.trace {
		rec = newRecorder(w.name)
	}
	var plain, traced tally
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		// Traced runs alternate, so drift hits both halves alike and
		// their throughput ratio is the tracing overhead. Two rounds at
		// least, so a short traced run has one of each.
		if rec != nil && i%2 == 1 {
			traced.add(inst.round(rec))
		} else {
			plain.add(inst.round(nil))
		}
		refs = append(refs, hostRef())
	}

	layers := map[string]metric{}
	put := func(name string, value float64, unit string) { layers[name] = metric{value, unit} }
	var probeAttempted, probeFailed int64
	if rec != nil {
		// Memo counters are read where the timed phase left them.
		inst.layers(rec, put)
		var err error
		if probeAttempted, probeFailed, err = probeLayers(w.name, e, rec, put); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	attempted := plain.ok + plain.failed + traced.ok + traced.failed + probeAttempted
	failed := plain.failed + traced.failed + probeFailed + inst.verify()
	for _, l := range inst.named(&plain) {
		fmt.Fprintf(log, "%-24s %14.6g %s\n", l.name, l.value, l.unit)
	}
	fmt.Fprintf(log, "%-24s %14.6g %s\n", "host.ref_ms", median(refs)*1e3, "ms")
	fmt.Fprintf(log, "%-24s %14.6g %s (%d of %d)\n", "fail_ratio", ratio(failed, attempted), "ratio", failed, attempted)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if rec == nil {
		lat := plain.latencies()
		res.Metrics = map[string]metric{
			"setup_s":      {median(setups), "s"},
			"ops_per_s":    {plain.roundRate(), "1/s"},
			"op_p50_ms":    {quantile(lat, 0.50) * 1e3, "ms"},
			"op_p98_ms":    {quantile(lat, 0.98) * 1e3, "ms"},
			"live_heap_mb": {heapMB, "MB"},
		}
		return res, nil
	}
	put("fail_ratio", ratio(failed, attempted), "ratio")
	put("host.ref_ms", median(refs)*1e3, "ms")
	put("trace.overhead_pct", 100*(plain.rate()/traced.rate()-1), "%")
	rec.selfTimes(put)
	path := filepath.Join(opt.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, opt.seed))
	kept, dropped, err := rec.writeFile(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace written to %s (%d spans kept, %d dropped)\n", path, kept, dropped)
	res.Metrics = layers
	return res, nil
}

// liveHeapMB is the heap in use after a forced collection, with the
// set-up instance (and so the program state it holds) reachable. It is
// taken before the timed phase: what a request-driven phase adds (the
// serve cache's cold answers) grows with throughput, so measured after
// it a throughput gain would read as a memory regression.
func liveHeapMB(inst instance) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
