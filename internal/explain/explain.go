// Package explain is the reusable query library over the performance
// model: typed "what-if" answers — compile a loop under a toolchain,
// break its schedule down, predict runtimes at thread counts, place
// kernels on the roofline — that both cmd/ookami-explain (a thin text
// formatter) and the ookami-serve HTTP API call directly. Everything
// here is deterministic and certified pure (the parsafe firewall records
// the entry points), which is what lets the server memoize whole
// responses: two identical queries must produce identical bytes.
package explain

import (
	"fmt"
	"strings"

	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/roofline"
	"ookami/internal/toolchain"
)

// AllLoops is the query surface of the loop suite: the Figure 1 simple
// loops followed by the Figure 2 math loops (the order the paper and the
// CLI use).
var AllLoops = func() []toolchain.Loop {
	return append(append([]toolchain.Loop{}, toolchain.SimpleLoops...), toolchain.MathLoops...)
}()

// FindLoop resolves a loop by its paper name ("simple", "short gather",
// "exp", ...), case-insensitively.
//
//ookami:pure read-only scan of the loop list
func FindLoop(name string) (toolchain.Loop, bool) {
	for _, l := range AllLoops {
		if strings.EqualFold(l.String(), name) {
			return l, true
		}
	}
	return 0, false
}

// profiledMachines lists the machines with instruction-level scheduling
// profiles — the ones Explain and Predict can answer for.
var profiledMachines = []machine.Machine{
	machine.A64FX,
	machine.SkylakeGold6140,
	machine.SkylakeGold6130,
	machine.StampedeSKX,
}

// MachineByName resolves a profiled machine by name, case-insensitively.
//
//ookami:pure read-only scan of the machine list
func MachineByName(name string) (machine.Machine, bool) {
	for _, m := range profiledMachines {
		if strings.EqualFold(m.Name, name) {
			return m, true
		}
	}
	return machine.Machine{}, false
}

// DefaultMachine is the machine a toolchain targets when the query names
// none: Intel compiles for the Skylake comparison node, everything else
// for the Ookami A64FX node (the CLI's historical behavior).
//
//ookami:pure
func DefaultMachine(tc toolchain.Toolchain) machine.Machine {
	if tc.Name == toolchain.Intel.Name {
		return machine.SkylakeGold6140
	}
	return machine.A64FX
}

// ToolchainInfo is the discovery record for one toolchain.
type ToolchainInfo struct {
	Name      string `json:"name"`
	Version   string `json:"version"`
	Flags     string `json:"flags"`
	ISA       string `json:"isa"`
	Placement string `json:"placement"`
}

// Toolchains lists every modeled toolchain.
//
//ookami:pure builds fresh records from the read-only registry
func Toolchains() []ToolchainInfo {
	out := make([]ToolchainInfo, 0, len(toolchain.All))
	for _, tc := range toolchain.All {
		out = append(out, ToolchainInfo{
			Name:      tc.Name,
			Version:   tc.Version,
			Flags:     tc.Flags,
			ISA:       tc.ForISA.String(),
			Placement: tc.Placement.String(),
		})
	}
	return out
}

// LoopInfo is the discovery record for one loop kernel.
type LoopInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "simple" or "math"
}

// Loops lists the loop kernels in figure order.
//
//ookami:pure
func Loops() []LoopInfo {
	out := make([]LoopInfo, 0, len(AllLoops))
	for _, l := range AllLoops {
		kind := "simple"
		if l.IsMath() {
			kind = "math"
		}
		out = append(out, LoopInfo{Name: l.String(), Kind: kind})
	}
	return out
}

// MachineInfo is the discovery record for one machine.
type MachineInfo struct {
	Name           string  `json:"name"`
	CPU            string  `json:"cpu"`
	ISA            string  `json:"isa"`
	Cores          int     `json:"cores"`
	ClockGHz       float64 `json:"clockGHz"`
	SIMDBits       int     `json:"simdBits"`
	PeakGFLOPSNode float64 `json:"peakGflopsNode"`
	MemBWNode      float64 `json:"memBWNodeGBs"`
	RidgeFlopByte  float64 `json:"ridgeFlopByte"`
}

// Machines lists the profiled machines.
//
//ookami:pure
func Machines() []MachineInfo {
	out := make([]MachineInfo, 0, len(profiledMachines))
	for _, m := range profiledMachines {
		out = append(out, MachineInfo{
			Name:           m.Name,
			CPU:            m.CPU,
			ISA:            m.ISA.String(),
			Cores:          m.Cores,
			ClockGHz:       m.ClockGHz,
			SIMDBits:       m.SIMDBits,
			PeakGFLOPSNode: m.PeakGFLOPSNode(),
			MemBWNode:      m.MemBWNode,
			RidgeFlopByte:  roofline.Ridge(m),
		})
	}
	return out
}

// Breakdown is the typed schedule breakdown of a vectorized loop: its
// steady-state cost, pipe utilization and critical instruction.
type Breakdown struct {
	Instructions   int     `json:"instructions"`
	FPInstructions int     `json:"fpInstructions"`
	Window         int     `json:"window"`
	IssueWidth     int     `json:"issueWidth"`
	ElemsPerIter   int     `json:"elemsPerIter"`
	CyclesPerIter  float64 `json:"cyclesPerIter"`
	CyclesPerElem  float64 `json:"cyclesPerElement"`
	// Pipe utilizations in percent of pipe-cycles busy, and sustained IPC.
	FPUtilPct    float64 `json:"fpUtilPct"`
	LoadUtilPct  float64 `json:"loadUtilPct"`
	StoreUtilPct float64 `json:"storeUtilPct"`
	IntUtilPct   float64 `json:"intUtilPct"`
	IPC          float64 `json:"ipc"`
	// CriticalIndex/Op name the body instruction whose result completes
	// last in a steady-state iteration (-1 when the trace is empty).
	CriticalIndex int    `json:"criticalIndex"`
	CriticalOp    string `json:"criticalOp,omitempty"`
}

// NewBreakdown runs the instrumented scheduler over a compiled loop body
// and returns the typed breakdown. Utilization and the critical
// instruction come from the traced perfmodel.SteadyIters-iteration run,
// which also serves as CyclesPerIter's shorter run.
//
//ookami:pure instrumented schedule of a fresh body
func NewBreakdown(p *perfmodel.Profile, body perfmodel.Body, elemsPerIter int) Breakdown {
	events, util, cpi := p.SteadyTrace(body)
	b := Breakdown{
		Instructions:   len(body),
		FPInstructions: body.CountFP(),
		Window:         p.Window,
		IssueWidth:     p.IssueWidth,
		ElemsPerIter:   elemsPerIter,
		CyclesPerIter:  cpi,
		FPUtilPct:      100 * float64(util.FPBusy) / float64(util.Cycles*p.FPPipes),
		LoadUtilPct:    100 * float64(util.LoadBusy) / float64(util.Cycles*p.LoadPipes),
		StoreUtilPct:   100 * float64(util.StoreBusy) / float64(util.Cycles*p.StorePipes),
		IntUtilPct:     100 * float64(util.IntBusy) / float64(util.Cycles*p.IntPipes),
		IPC:            util.IPC,
		CriticalIndex:  -1,
	}
	if elemsPerIter > 0 {
		b.CyclesPerElem = cpi / float64(elemsPerIter)
	}
	mid := perfmodel.SteadyIters / 2
	latest := -1
	for _, e := range events {
		if e.Iter == mid && e.Done > latest {
			latest = e.Done
			b.CriticalIndex = e.Index
		}
	}
	if b.CriticalIndex >= 0 {
		b.CriticalOp = body[b.CriticalIndex].Op.String()
	}
	return b
}

// Text renders the breakdown as cmd/ookami-explain prints it (the CLI's
// golden tests pin it byte for byte).
func (b Breakdown) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "body: %d instructions (%d FP), window %d, issue %d\n",
		b.Instructions, b.FPInstructions, b.Window, b.IssueWidth)
	fmt.Fprintf(&sb, "steady state: %.2f cycles/iter", b.CyclesPerIter)
	if b.ElemsPerIter > 0 {
		fmt.Fprintf(&sb, " = %.2f cycles/element", b.CyclesPerElem)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "pipe utilization: FP %.0f%%  load %.0f%%  store %.0f%%  int %.0f%%  (IPC %.2f)\n",
		b.FPUtilPct, b.LoadUtilPct, b.StoreUtilPct, b.IntUtilPct, b.IPC)
	if b.CriticalIndex >= 0 {
		fmt.Fprintf(&sb, "critical endpoint: instruction %d (%s)\n", b.CriticalIndex, b.CriticalOp)
	}
	return sb.String()
}

// Result is the typed answer to an explain query: how a toolchain
// compiled a loop for a machine, and what the schedule model says about
// the result.
type Result struct {
	Toolchain  string   `json:"toolchain"`
	Version    string   `json:"version"`
	Flags      string   `json:"flags"`
	Loop       string   `json:"loop"`
	Machine    string   `json:"machine"`
	Report     []string `json:"report"` // the compiler's vectorization report
	Vectorized bool     `json:"vectorized"`
	// SerialCyclesPerElem is set instead of Breakdown when the loop stayed
	// scalar (GNU's math loops on SVE).
	SerialCyclesPerElem float64    `json:"serialCyclesPerElem,omitempty"`
	Breakdown           *Breakdown `json:"breakdown,omitempty"`
}

// Explain compiles loop l with toolchain tc for machine m and returns the
// typed result. It fails when the toolchain does not target the machine
// or the machine has no instruction-level profile.
//
//ookami:pure compile + schedule of fresh bodies
func Explain(tc toolchain.Toolchain, l toolchain.Loop, m machine.Machine) (Result, error) {
	if !tc.Supports(m) {
		return Result{}, fmt.Errorf("toolchain %s does not target %s (%s)", tc.Name, m.Name, m.ISA)
	}
	prof, ok := perfmodel.ProfileFor(m.Name)
	if !ok {
		return Result{}, fmt.Errorf("machine %s has no instruction-level profile", m.Name)
	}
	c := tc.Compile(l, m)
	r := Result{
		Toolchain:  tc.Name,
		Version:    tc.Version,
		Flags:      tc.Flags,
		Loop:       l.String(),
		Machine:    m.Name,
		Report:     c.Report(),
		Vectorized: c.Vectorized,
	}
	if !c.Vectorized {
		r.SerialCyclesPerElem = c.SerialCyclesPerElem
		return r, nil
	}
	b := NewBreakdown(prof, c.Body, c.ElemsPerIter)
	r.Breakdown = &b
	return r, nil
}

// Text renders the result exactly as cmd/ookami-explain always printed
// it: the compile banner, the vectorization report, then either the
// scalar-loop line or the schedule breakdown.
func (r Result) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s compiling the %q loop for %s (%s):\n",
		r.Toolchain, r.Version, r.Loop, r.Machine, r.Flags)
	for _, msg := range r.Report {
		fmt.Fprintf(&sb, "  %s\n", msg)
	}
	sb.WriteByte('\n')
	if !r.Vectorized {
		fmt.Fprintf(&sb, "scalar loop: %.1f cycles/element (serial library call)\n", r.SerialCyclesPerElem)
		return sb.String()
	}
	sb.WriteString(r.Breakdown.Text())
	return sb.String()
}
