package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"ookami/internal/explain"
	"ookami/internal/machine"
	"ookami/internal/serve"
	"ookami/internal/toolchain"
)

// The predict-mix traffic: predictClients closed-loop clients, each
// waiting for its reply before sending the next request. One request in
// coldEvery is cold (a loop tuple with fresh elems, so it always misses
// the cache); the rest draw a hot tuple from a Zipf(zipfS) distribution
// over the fixed hot set.
//
// The cold share, the Zipf exponent and the hot set below are design
// assumptions of this benchmark, not measurements: no record of what
// clients of ookami-serve send exists to take them from. They are chosen
// so that the median request takes the cached path, the tail takes the
// model path, and the thread clamp above a machine's cores is exercised.
// README.md lists them under "Assumed traffic".
const (
	predictClients = 2
	coldEvery      = 10
	zipfS          = 1.2
	coldElemsBase  = 3 << 20

	// roundGap is one round of predict-mix traffic: the slice between two
	// samples of the host reference loop.
	roundGap = 250 * time.Millisecond
)

// hotKind classes the hot tuples; the seeded shuffle only permutes
// tuples within a kind, so every seed draws the same mix of kinds.
type hotKind int

const (
	loopInCores hotKind = iota
	loopAboveCores
	appInCores
	appAboveCores
	numHotKinds
)

type hotTuple struct {
	req  explain.Request
	kind hotKind
}

// hotSet is the fixed hot set: every loop kernel and every NPB app under
// a spread of toolchains, machines and thread counts (an assumed spread,
// see above). One tuple in three asks for more threads than its machine
// has cores, so the serve path's clamp to the core count is exercised.
func hotSet() []hotTuple {
	type variant struct {
		tc      toolchain.Toolchain
		m       machine.Machine
		threads int
	}
	loopVariants := []variant{
		{toolchain.Fujitsu, machine.A64FX, 1},
		{toolchain.Intel, machine.SkylakeGold6140, 18},
		{toolchain.Cray, machine.A64FX, 96},
	}
	appVariants := []variant{
		{toolchain.Fujitsu, machine.A64FX, 48},
		{toolchain.GNU, machine.A64FX, 1},
		{toolchain.Cray, machine.A64FX, 12},
		{toolchain.Intel, machine.SkylakeGold6140, 36},
		{toolchain.Fujitsu, machine.A64FX, 96},
		{toolchain.Intel, machine.SkylakeGold6130, 64},
	}
	var out []hotTuple
	add := func(kernel string, v variant, loop bool) {
		kind := appInCores
		if loop {
			kind = loopInCores
		}
		if v.threads > v.m.Cores {
			kind++
		}
		out = append(out, hotTuple{
			req:  explain.Request{Kernel: kernel, Toolchain: v.tc.Name, Machine: v.m.Name, Threads: v.threads},
			kind: kind,
		})
	}
	for _, l := range explain.AllLoops {
		for _, v := range loopVariants {
			add(l.String(), v, true)
		}
	}
	for _, app := range []string{"BT", "CG", "EP", "LU", "SP", "UA"} {
		for _, v := range appVariants {
			add(app, v, false)
		}
	}
	return out
}

// coldSet is every valid (loop, toolchain, machine) tuple of the query
// space; cold requests cycle through it in seeded order, each with
// fresh elems.
func coldSet() []explain.Request {
	var out []explain.Request
	for _, tc := range toolchain.All {
		for _, m := range []machine.Machine{machine.A64FX, machine.SkylakeGold6140, machine.SkylakeGold6130, machine.StampedeSKX} {
			if !tc.Supports(m) {
				continue
			}
			for i, l := range explain.AllLoops {
				threads := 1
				if i%2 == 1 {
					threads = m.Cores
				}
				out = append(out, explain.Request{Kernel: l.String(), Toolchain: tc.Name, Machine: m.Name, Threads: threads})
			}
		}
	}
	return out
}

// rankOrder maps each Zipf rank to a kind with every kind spread evenly
// over the ranks, so no kind owns the head of the distribution.
func rankOrder(counts [numHotKinds]int) []hotKind {
	type slot struct {
		pos  float64
		kind hotKind
	}
	var slots []slot
	for k, n := range counts {
		for i := 0; i < n; i++ {
			slots = append(slots, slot{(float64(i) + 0.5) / float64(n), hotKind(k)})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	out := make([]hotKind, len(slots))
	for i, s := range slots {
		out[i] = s.kind
	}
	return out
}

// request is one generated request: hot >= 0 is its hot-set index, -1
// marks a cold request.
type request struct {
	req  explain.Request
	hot  int
	body []byte
}

// generator yields one client's request sequence. It is deterministic
// in (seed, client): the same seed replays the same sequence.
type generator struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	hot      []hotTuple
	hotBody  [][]byte
	rank     []int // Zipf rank -> hot index
	cold     []explain.Request
	coldPerm []int
	coldPos  int
	slot     int // position of the cold request in the current block
	n        int
	elems    int
	stride   int
}

func newGenerator(seed int64, client, clients int) *generator {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	g := &generator{
		rng:    rng,
		hot:    hotSet(),
		cold:   coldSet(),
		elems:  coldElemsBase + (int(uint64(seed)%1024)<<20)*clients + client,
		stride: clients,
	}
	g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(g.hot)-1))
	// Shuffle tuples within each kind, then deal them onto the ranks.
	var byKind [numHotKinds][]int
	var counts [numHotKinds]int
	for i, t := range g.hot {
		byKind[t.kind] = append(byKind[t.kind], i)
		counts[t.kind]++
	}
	for _, idx := range byKind {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	for _, k := range rankOrder(counts) {
		g.rank = append(g.rank, byKind[k][0])
		byKind[k] = byKind[k][1:]
	}
	for _, t := range g.hot {
		g.hotBody = append(g.hotBody, mustJSON(t.req))
	}
	g.slot = rng.Intn(coldEvery)
	return g
}

func (g *generator) next() request {
	i := g.n % coldEvery
	g.n++
	cold := i == g.slot
	if i == coldEvery-1 {
		g.slot = g.rng.Intn(coldEvery) // the next block's cold position
	}
	if !cold {
		h := g.rank[g.zipf.Uint64()]
		return request{req: g.hot[h].req, hot: h, body: g.hotBody[h]}
	}
	if g.coldPos == 0 {
		g.coldPerm = g.rng.Perm(len(g.cold))
	}
	req := g.cold[g.coldPerm[g.coldPos]]
	g.coldPos = (g.coldPos + 1) % len(g.cold)
	req.Elems = g.elems
	g.elems += g.stride
	return request{req: req, hot: -1, body: mustJSON(req)}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return data
}

// predictRun is the predict-mix workload against one in-process serve
// instance: the default configuration with rate limiting off (the
// documented -rate -1), so the single benchmark tenant is not throttled.
type predictRun struct {
	srv     *serve.Server
	handler http.Handler
	clients []*predictClient

	non200       int64
	warmupFailed int64
}

// predictClient is one closed-loop client with what it saw: the first
// body per hot tuple, and every cold request with its body.
type predictClient struct {
	id       int
	gen      *generator
	hotBody  map[int][]byte
	coldReq  []explain.Request
	coldBody [][]byte
	diverged int64
	non200   int64
	lat      []time.Duration // this round's latencies
}

func setupPredict(e *env) (instance, error) {
	srv := serve.New(serve.Config{Rate: -1})
	p := &predictRun{srv: srv, handler: srv.Handler()}
	for c := 0; c < predictClients; c++ {
		p.clients = append(p.clients, &predictClient{id: c, gen: newGenerator(e.seed, c, predictClients), hotBody: map[int][]byte{}})
	}
	// Warm the hot set so the timed phase sees a long-running server's
	// cache; the warm-up answers are checked like any other.
	warm := p.clients[0]
	for h := range warm.gen.hot {
		w := httptest.NewRecorder()
		p.handler.ServeHTTP(w, newPost(warm.gen.hotBody[h]))
		if w.Code != http.StatusOK {
			p.warmupFailed++
			continue
		}
		warm.hotBody[h] = w.Body.Bytes()
	}
	return p, nil
}

func newPost(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
}

func (p *predictRun) round(rec *recorder) roundResult {
	var r roundResult
	t0 := time.Now()
	stop := t0.Add(roundGap)
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.lat = c.lat[:0]
			for time.Now().Before(stop) {
				p.send(c, rec)
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(t0)
	for _, c := range p.clients {
		r.ops = append(r.ops, c.lat...)
		r.failed += c.non200 + c.diverged
		p.non200 += c.non200
		c.non200, c.diverged = 0, 0
	}
	return r
}

// send issues the client's next request and records its answer.
func (p *predictRun) send(c *predictClient, rec *recorder) {
	g := c.gen.next()
	what := "hot"
	if g.hot < 0 {
		what = "cold"
	}
	req, w := newPost(g.body), httptest.NewRecorder()
	sp := rec.begin("serve", what, nil, rec.newOp(), c.id)
	t0 := time.Now()
	p.handler.ServeHTTP(w, req)
	d := time.Since(t0)
	rec.end(sp)
	status, body := w.Code, w.Body.Bytes()
	if status != http.StatusOK {
		c.non200++
	}
	c.lat = append(c.lat, d)
	if g.hot >= 0 {
		if first, ok := c.hotBody[g.hot]; !ok {
			c.hotBody[g.hot] = body
		} else if !bytes.Equal(first, body) {
			c.diverged++
		}
		return
	}
	c.coldReq = append(c.coldReq, g.req)
	c.coldBody = append(c.coldBody, body)
}

// verify byte-compares every distinct answer with json.Marshal of a
// direct explain.Predict call.
func (p *predictRun) verify() int64 {
	failed := p.warmupFailed
	for h, t := range p.clients[0].gen.hot {
		want := expectedBody(t.req)
		for _, c := range p.clients {
			if body, ok := c.hotBody[h]; ok && !bytes.Equal(body, want) {
				failed++
			}
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bad int64
			for i, req := range c.coldReq {
				if !bytes.Equal(expectedBody(req), c.coldBody[i]) {
					bad++
				}
			}
			mu.Lock()
			failed += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	return failed
}

// expectedBody is the byte-identical contract's reference answer.
func expectedBody(req explain.Request) []byte {
	pred, err := explain.Predict(req)
	if err != nil {
		return nil
	}
	return mustJSON(pred)
}

func (p *predictRun) named(t *tally) []namedValue {
	all := t.latencies()
	return []namedValue{
		{"predict_rps", t.rate(), "1/s"},
		{"predict_p50_us", quantile(all, 0.5) * 1e6, fmt.Sprintf("us (n=%d)", len(all))},
		{"predict_p99_ms", quantile(all, 0.99) * 1e3, fmt.Sprintf("ms (n=%d, %d beyond)", len(all), len(all)/100)},
	}
}

func (p *predictRun) layers(rec *recorder, put putFunc) {
	putMemo("parexec.predict", p.srv.CacheMetrics(), put)
	put("serve.non200", float64(p.non200), "count")
	put("serve.hot_p50_us", median(rec.durations("serve.hot"))*1e6, "us")
	put("serve.cold_p50_ms", median(rec.durations("serve.cold"))*1e3, "ms")
}
