package perfmodel_test

import (
	"testing"

	"ookami/internal/machine"
	pm "ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// heaviestBody is the model core's most expensive input: the Fujitsu pow
// loop on A64FX, 139 instructions.
func heaviestBody(b *testing.B) (*pm.Profile, pm.Body) {
	p, _ := pm.ProfileFor(machine.A64FX.Name)
	c := toolchain.Fujitsu.Compile(toolchain.LoopPow, machine.A64FX)
	if len(c.Body) != 139 {
		b.Fatalf("Fujitsu pow body has %d instructions, want 139", len(c.Body))
	}
	return p, c.Body
}

func BenchmarkSchedule(b *testing.B) {
	p, body := heaviestBody(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Schedule(body, 128)
	}
}

func BenchmarkCyclesPerIter(b *testing.B) {
	p, body := heaviestBody(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.CyclesPerIter(body)
	}
}

// BenchmarkCyclesPerIterSuite prices every vectorized body of the loop
// suite once per op ("all"), reporting the share whose schedule repeats
// early enough to extrapolate, and each body on its own.
func BenchmarkCyclesPerIterSuite(b *testing.B) {
	suite := suiteBodies(b)
	b.Run("all", func(b *testing.B) {
		periodic := 0
		for _, sb := range suite {
			if iters, _ := sb.p.SteadyPeriod(sb.body); iters > 0 {
				periodic++
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, sb := range suite {
				sb.p.CyclesPerIter(sb.body)
			}
		}
		b.ReportMetric(float64(periodic)/float64(len(suite)), "periodic/body")
	})
	for _, sb := range suite {
		b.Run(sb.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sb.p.CyclesPerIter(sb.body)
			}
		})
	}
}
