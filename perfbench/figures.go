package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ookami/internal/figures"
	"ookami/internal/parexec"
	"ookami/internal/stats"
)

// figuresRun is the figures workload: each round regenerates every
// artifact of figures.All()+figures.Extras() in paper order through a
// fresh serial memoized engine (the `ookami-figures -extras` default)
// and byte-compares each CSV with the committed results/<id>.csv. The
// artifact list is fixed by the paper, so the seed changes nothing.
type figuresRun struct {
	items    []figures.Item
	expected [][]byte
	passes   int // untraced rounds
	memo     parexec.MemoMetrics

	warmupFailed int64
}

func setupFigures(e *env) (instance, error) {
	items := append(figures.All(), figures.Extras()...)
	f := &figuresRun{items: items}
	for _, it := range items {
		data, err := os.ReadFile(filepath.Join(e.root, "results", it.ID+".csv"))
		if err != nil {
			return nil, fmt.Errorf("expected artifact: %w", err)
		}
		f.expected = append(f.expected, data)
	}
	// Warm-up pass: lazily built model tables fill before timing. Its
	// mismatches count as failures like any pass's.
	f.warmupFailed = f.pass(nil).failed
	return f, nil
}

func (f *figuresRun) round(rec *recorder) roundResult {
	r := f.pass(rec)
	if rec == nil {
		f.passes++
	}
	return r
}

// pass is one full regeneration; the op of each artifact is its
// Generate call, and the CSV comparison runs outside the op's time.
func (f *figuresRun) pass(rec *recorder) roundResult {
	eng := parexec.NewSerial()
	figures.SetEngine(eng)
	defer figures.SetEngine(nil)
	var r roundResult
	op := rec.newOp()
	t0 := time.Now()
	root := rec.begin("figures", "pass", nil, op, 0)
	tables := make([]*stats.Table, len(f.items))
	for i, it := range f.items {
		d := rec.timed("figures", it.ID, root, op, func() { tables[i] = it.Generate() })
		r.ops = append(r.ops, d)
	}
	rec.timed("parexec", "memo_metrics", root, op, func() { f.memo = eng.MemoMetrics() })
	rec.end(root)
	r.wall = time.Since(t0)
	for i, tab := range tables {
		if tab.CSV() != string(f.expected[i]) {
			r.failed++
		}
	}
	return r
}

func (f *figuresRun) verify() int64 { return f.warmupFailed } // timed passes compare as they complete

func (f *figuresRun) named(t *tally) []namedValue {
	return []namedValue{
		{"figures_per_s", float64(f.passes) / t.wall.Seconds(), "1/s"},
	}
}

func (f *figuresRun) layers(rec *recorder, put putFunc) {
	putMemo("parexec.figures", f.memo, put)
	for _, it := range f.items {
		rec.spanMetric("figures."+it.ID, "ms", put)
	}
}

// putMemo reports a memo's counters: one figures pass's engine, or the
// serve instance's cache at the end of its traffic.
func putMemo(prefix string, m parexec.MemoMetrics, put putFunc) {
	put(prefix+".hits", float64(m.Hits), "count")
	put(prefix+".misses", float64(m.Misses), "count")
	put(prefix+".evictions", float64(m.Evictions), "count")
	put(prefix+".hit_ratio", ratio(int64(m.Hits), int64(m.Hits+m.Misses)), "ratio")
}
