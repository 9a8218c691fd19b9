package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ookami/internal/bench"
	"ookami/internal/trace"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark's output must
// agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func runQuick(t *testing.T, opt options) *result {
	t.Helper()
	if opt.root == "" {
		opt.root = ".."
	}
	if opt.out == "" {
		opt.out = t.TempDir()
	}
	if opt.seconds == 0 {
		opt.seconds = 0.3
	}
	res, err := run(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMetrics asserts the result reports exactly the declared metrics
// with their declared units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestEveryWorkloadReportsTheDeclaredEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		res := runQuick(t, options{workload: w.Name, seed: 1})
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, res.Metrics, spec.EndToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", w.Name, name, m.Value)
			}
		}
	}
}

// TestTracedRunCoversEveryModule: a short traced run reports every
// declared per-layer metric, and its trace file, read back by the
// internal/trace reader ookami-trace uses, holds at least one span of
// every module and the per-layer self-time counters.
func TestTracedRunCoversEveryModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes")
	}
	out := t.TempDir()
	res := runQuick(t, options{workload: "figures", seed: 3, trace: true, out: out})
	checkMetrics(t, res.Metrics, loadSpec(t).PerLayer)

	tr, err := trace.LoadFile(filepath.Join(out, "trace-figures-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, ev := range tr.Events {
		if ev.Ph == trace.PhaseSpan {
			spans[ev.Cat]++
		}
	}
	for _, m := range modules {
		if spans[m] == 0 {
			t.Errorf("no %s span in the trace (spans per module: %v)", m, spans)
		}
	}
	var sum bytes.Buffer
	if err := tr.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	for _, m := range modules {
		if !strings.Contains(sum.String(), "perfbench/self_ns."+m) {
			t.Errorf("ookami-trace summary lacks the %s self-time counter:\n%s", m, sum.String())
		}
	}
}

// corruptedRoot is a checkout root whose results/ holds the committed
// artifacts with one byte of fig3.csv changed.
func corruptedRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	csvs, err := filepath.Glob("../results/*.csv")
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no committed artifacts: %v", err)
	}
	for _, src := range csvs {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(src) == "fig3.csv" {
			data = bytes.Replace(data, []byte("."), []byte(","), 1)
		}
		if err := os.WriteFile(filepath.Join(root, "results", filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCorruptedArtifactCountsAsFailure: one wrong expected CSV makes
// every pass fail that artifact.
func TestCorruptedArtifactCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the figures")
	}
	res := runQuick(t, options{workload: "figures", seed: 1, root: corruptedRoot(t)})
	if res.Correct || res.Failed == 0 || ratio(res.Failed, res.Attempted) <= 0 {
		t.Fatalf("corrupted fig3.csv went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestProbeFailureCountsAsFailure: a traced predict-mix run reaches the
// figures layer only through its probe pass, and a wrong artifact seen
// there still makes the run incorrect.
func TestProbeFailureCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes")
	}
	res := runQuick(t, options{workload: "predict-mix", seed: 1, trace: true, root: corruptedRoot(t)})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted fig3.csv in the probe went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestCorruptedResponseCountsAsFailure: verification catches a served
// body that differs from a direct explain.Predict, cold or hot.
func TestCorruptedResponseCountsAsFailure(t *testing.T) {
	for _, which := range []string{"none", "cold", "hot"} {
		inst, err := setupPredict(&env{root: "..", seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		p := inst.(*predictRun)
		c := p.clients[0]
		for len(c.coldBody) == 0 {
			p.send(c, nil)
		}
		switch which {
		case "cold":
			c.coldBody[0] = append([]byte(nil), c.coldBody[0]...)
			c.coldBody[0][len(c.coldBody[0])/2] ^= 1
		case "hot":
			for h, body := range c.hotBody {
				c.hotBody[h] = append(append([]byte(nil), body...), ' ')
				break
			}
		}
		got := p.verify()
		if (which == "none") != (got == 0) {
			t.Errorf("%s corruption: verify found %d failure(s)", which, got)
		}
	}
}

// TestKernelPanicCountsAsFailure: a registry closure that panics (as a
// failed NPB verification does) is isolated and counted.
func TestKernelPanicCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kernel")
	}
	const name = "zz/always-panics"
	bench.Register(bench.Workload{Name: name, Setup: func() (func(), error) {
		return func() { panic("verification failed") }, nil
	}})
	defer bench.Unregister(name)
	res := runQuick(t, options{workload: "kernels", seed: 1})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a panicking kernel went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "figures", "--trace", "2"},
		{"--workload", "figures", "--seconds", "0"},
		{"--workload", "figures", "extra"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted bad input", args)
		}
	}
	opt, err := parseFlags([]string{"--workload", "kernels", "--seed", "9", "--seconds", "2", "--trace", "1"}, io.Discard)
	if err != nil || opt.seed != 9 || opt.seconds != 2 || !opt.trace {
		t.Fatalf("parseFlags = %+v, %v", opt, err)
	}
}
