package explain

import (
	"fmt"
	"strings"

	"ookami/internal/machine"
	"ookami/internal/npb"
	"ookami/internal/perfmodel"
	"ookami/internal/roofline"
	"ookami/internal/toolchain"
)

// UnknownError reports a query naming an entity the model does not know.
// The server maps it to 404-style "no such resource" responses.
type UnknownError struct {
	Kind string // "kernel", "toolchain" or "machine"
	Name string
}

// Error implements error.
func (e *UnknownError) Error() string { return fmt.Sprintf("unknown %s %q", e.Kind, e.Name) }

// BadRequestError reports a structurally invalid query (bad thread or
// element counts, a toolchain/machine pair that cannot be compiled).
type BadRequestError struct{ Msg string }

// Error implements error.
func (e *BadRequestError) Error() string { return e.Msg }

// Request is one prediction query: what would kernel X compiled by
// toolchain Y cost on machine Z at p threads? Kernel names either a loop
// of the Figure 1-2 suite ("simple", "exp", ...) or an NPB application
// ("BT".."UA", modeled at class C). Machine defaults to the toolchain's
// study machine, Threads to 1, and Elems (loop kernels only) to 1<<20.
type Request struct {
	Kernel    string `json:"kernel"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	Elems     int    `json:"elems,omitempty"`
}

// DefaultElems is the element count a loop prediction uses when the
// request leaves it zero.
const DefaultElems = 1 << 20

// Prediction is the typed answer: predicted runtime, the model's
// component breakdown, the kernel's roofline position, and (for
// vectorized loops) the instruction-schedule breakdown.
type Prediction struct {
	Kind      string `json:"kind"` // "loop" or "app"
	Kernel    string `json:"kernel"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine"`
	Threads   int    `json:"threads"`
	Elems     int    `json:"elems,omitempty"` // loop kernels
	Class     string `json:"class,omitempty"` // app kernels: NPB class

	RuntimeSeconds   float64                 `json:"runtimeSeconds"`
	CyclesPerElement float64                 `json:"cyclesPerElement,omitempty"` // loop kernels
	Parts            perfmodel.NodeTimeParts `json:"parts"`
	Bound            string                  `json:"bound"` // dominating term: "compute" or "memory"

	Roofline      RooflinePoint `json:"roofline"`
	RidgeFlopByte float64       `json:"ridgeFlopByte"`

	Report    []string   `json:"report,omitempty"`    // loop kernels: compile report
	Breakdown *Breakdown `json:"breakdown,omitempty"` // vectorized loop kernels
}

// loopTraffic is the per-element characterization of each loop: real
// flops and DRAM traffic classes, used for the roofline placement and
// the bandwidth side of the runtime prediction. Bytes follow the
// paper's Section III setups — 8-byte doubles, 8-byte indices; gather/
// scatter indices are full random permutations (random traffic), the
// "short" variants stay within 128-byte windows (strided traffic).
type loopTraffic struct {
	flops   float64
	stream  float64
	strided float64
	random  float64
}

// trafficFor returns the traffic model of a loop.
//
//ookami:pure static per-loop table
func trafficFor(l toolchain.Loop) loopTraffic {
	switch l {
	case toolchain.LoopSimple: // y[i] = 2*x[i] + 3*x[i]*x[i]
		return loopTraffic{flops: 3, stream: 16}
	case toolchain.LoopPredicate: // if (x[i] > 0) y[i] = x[i]
		return loopTraffic{flops: 1, stream: 16}
	case toolchain.LoopGather: // y[i] = x[index[i]]
		return loopTraffic{flops: 0, stream: 16, random: 8}
	case toolchain.LoopScatter: // y[index[i]] = x[i]
		return loopTraffic{flops: 0, stream: 16, random: 8}
	case toolchain.LoopShortGather, toolchain.LoopShortScatter:
		return loopTraffic{flops: 0, stream: 16, strided: 8}
	case toolchain.LoopStencil: // out[i] = c0*u[i] + c1*(6 neighbours)
		return loopTraffic{flops: 8, stream: 16}
	case toolchain.LoopPow: // y[i] = pow(x[i], p[i]): two input streams
		return loopTraffic{flops: 20, stream: 24}
	case toolchain.LoopRecip:
		return loopTraffic{flops: 1, stream: 16}
	case toolchain.LoopSqrt:
		return loopTraffic{flops: 1, stream: 16}
	default: // exp, sin: polynomial kernels over one stream
		return loopTraffic{flops: 15, stream: 16}
	}
}

// resolveToolchain finds a toolchain case-insensitively.
//
//ookami:pure read-only registry scan
func resolveToolchain(name string) (toolchain.Toolchain, bool) {
	for _, tc := range toolchain.All {
		if strings.EqualFold(tc.Name, name) {
			return tc, true
		}
	}
	return toolchain.Toolchain{}, false
}

// resolveApp finds an NPB application case-insensitively, returning the
// canonical name. It works on the name list rather than npb.Suite() so
// the certified callers stay free of interface dispatch, which the
// purity firewall cannot resolve.
//
//ookami:pure read-only suite-name scan
func resolveApp(name string) (string, bool) {
	for _, n := range npb.SuiteNames() {
		if strings.EqualFold(n, name) {
			return n, true
		}
	}
	return "", false
}

// query is a request in canonical form: names resolved, defaults
// applied and threads clamped to the machine's cores. Key prints it and
// Predict evaluates it, so two requests with equal keys get the same
// answer by construction.
type query struct {
	tc      toolchain.Toolchain
	m       machine.Machine
	threads int
	kernel  string         // canonical loop or application name
	loop    toolchain.Loop // loop kernels
	app     bool           // kernel names an NPB application
	elems   int            // loop kernels; zero for applications
}

// resolve validates a request and returns its canonical form.
func resolve(req Request) (query, error) {
	tc, ok := resolveToolchain(req.Toolchain)
	if !ok {
		return query{}, &UnknownError{Kind: "toolchain", Name: req.Toolchain}
	}
	var m machine.Machine
	if req.Machine == "" {
		m = DefaultMachine(tc)
	} else if m, ok = MachineByName(req.Machine); !ok {
		return query{}, &UnknownError{Kind: "machine", Name: req.Machine}
	}
	if !tc.Supports(m) {
		return query{}, &BadRequestError{
			Msg: fmt.Sprintf("toolchain %s (%s) does not target machine %s (%s)", tc.Name, tc.ForISA, m.Name, m.ISA)}
	}
	if req.Threads < 0 {
		return query{}, &BadRequestError{Msg: "threads must be >= 0"}
	}
	if req.Elems < 0 {
		return query{}, &BadRequestError{Msg: "elems must be >= 0"}
	}
	q := query{tc: tc, m: m, threads: min(max(req.Threads, 1), m.Cores)}
	if l, ok := FindLoop(req.Kernel); ok {
		q.kernel, q.loop, q.elems = l.String(), l, req.Elems
		if q.elems == 0 {
			q.elems = DefaultElems
		}
	} else if q.kernel, q.app = resolveApp(req.Kernel); !q.app {
		return query{}, &UnknownError{Kind: "kernel", Name: req.Kernel}
	}
	return q, nil
}

// Key is the canonical cache key of a request: the full resolved input
// tuple, including defaults. Two requests with equal keys are guaranteed
// byte-identical answers, which is the serve cache's contract.
func (req Request) Key() (string, error) {
	q, err := resolve(req)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d", q.kernel, q.tc.Name, q.tc.Version, q.m.Name, q.threads, q.elems), nil
}

// Predict answers one what-if query. The result is deterministic in the
// request tuple — the function is certified pure, which is what allows
// the server to coalesce and cache whole responses.
//
//ookami:pure model evaluation over read-only registries
func Predict(req Request) (Prediction, error) {
	q, err := resolve(req)
	if err != nil {
		return Prediction{}, err
	}
	if q.app {
		return predictApp(q.tc, q.kernel, q.m, q.threads), nil
	}
	return predictLoop(q.tc, q.loop, q.m, q.threads, q.elems)
}

// predictLoop models a loop kernel: the instruction-level schedule gives
// the compute rate, the traffic table and the NUMA-aware bandwidth model
// give the memory side, and the roofline combine takes the max.
func predictLoop(tc toolchain.Toolchain, l toolchain.Loop, m machine.Machine, threads, elems int) (Prediction, error) {
	r, err := Explain(tc, l, m)
	if err != nil {
		return Prediction{}, &BadRequestError{Msg: err.Error()}
	}
	var cpe float64
	if r.Vectorized {
		cpe = r.Breakdown.CyclesPerElem
	} else {
		cpe = r.SerialCyclesPerElem
	}

	tr := trafficFor(l)
	n := float64(elems)
	app := perfmodel.AppProfile{
		Name:         l.String(),
		Flops:        tr.flops * n,
		StreamBytes:  tr.stream * n,
		StridedBytes: tr.strided * n,
		RandomBytes:  tr.random * n,
	}

	clockHz := m.ClockAt(threads) * 1e9
	computeSec := cpe * n / (float64(threads) * clockHz)
	streamBW, randomBW := perfmodel.EffectiveBW(m, threads, tc.Placement, 0)
	strided := app.StridedBytes * float64(m.CacheLineB) / 64
	memSec := (app.StreamBytes+strided)/(streamBW*1e9) + app.RandomBytes/(randomBW*1e9)
	parts := perfmodel.NodeTimeParts{Parallel: computeSec, Memory: memSec}

	pt := roofline.Place(m, app)
	return Prediction{
		Kind:             "loop",
		Kernel:           l.String(),
		Toolchain:        tc.Name,
		Machine:          m.Name,
		Threads:          threads,
		Elems:            elems,
		RuntimeSeconds:   parts.Total(),
		CyclesPerElement: cpe,
		Parts:            parts,
		Bound:            parts.Bound(),
		Roofline: RooflinePoint{
			Name:             pt.Name,
			IntensityFlopB:   pt.Intensity,
			AttainableGFLOPS: pt.GFLOPS,
			Bound:            pt.Bound,
		},
		RidgeFlopByte: roofline.Ridge(m),
		Report:        r.Report,
		Breakdown:     r.Breakdown,
	}, nil
}

// predictApp models an NPB application at class C through the node-level
// model — the same evaluation figures.NPBTime performs, with the
// component terms kept.
func predictApp(tc toolchain.Toolchain, name string, m machine.Machine, threads int) Prediction {
	st, _ := npb.StatsByName(name, npb.ClassC)
	app := st.AppProfile(name)
	exec := ExecFor(tc, m, st.VecFrac)
	parts := perfmodel.NodeTimeBreakdown(m, app, exec, threads)
	total := parts.Total()
	if st.TouchChurn > 0.3 && threads > 1 {
		// Irregular dynamically-scheduled loops: the OpenMP-runtime
		// penalty the paper observed for Fujitsu and ARM on UA. The
		// penalty multiplies the combined total first — bit-identical to
		// figures.NPBTime — then the displayed parts.
		pen := IrregularPenalty(tc)
		total *= pen
		parts.Serial *= pen
		parts.Parallel *= pen
		parts.Memory *= pen
		parts.Sync *= pen
	}
	pt := roofline.Place(m, app)
	return Prediction{
		Kind:           "app",
		Kernel:         name,
		Toolchain:      tc.Name,
		Machine:        m.Name,
		Threads:        threads,
		Class:          string(npb.ClassC),
		RuntimeSeconds: total,
		Parts:          parts,
		Bound:          parts.Bound(),
		Roofline: RooflinePoint{
			Name:             pt.Name,
			IntensityFlopB:   pt.Intensity,
			AttainableGFLOPS: pt.GFLOPS,
			Bound:            pt.Bound,
		},
		RidgeFlopByte: roofline.Ridge(m),
	}
}
