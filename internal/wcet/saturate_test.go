package wcet

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

// TestWCETSaturatesNotWraps records a finding, it does not fix it: cellWCET
// multiplies a core's (possibly saturated) round-trip UBD by the benchmark's
// access count in plain uint64, so from about 20x20 the regular design's WCET
// is the true value modulo 2^64 — a "bound" that can sit below the WaW+WaP
// answer. The property checked per core is the weakest one a bound must keep:
// WCET >= MemoryAccesses x load-UBD, the product taken in math/big and clamped
// to 2^64-1. It holds for the whole EEMBC suite on 8x8 and 16x16, which run
// un-skipped; 20x20 and 28x28 are skipped by name with their reproduction
// until cellWCET and ParallelWCET use the saturating primitives (ROADMAP
// wcet-wrap, in the PR allowed to regenerate bench/expected/analytic-grid.json, which
// pins the wrapped bytes). A skipped size that stops wrapping fails, so the
// skip cannot outlive the bug.
func TestWCETSaturatesNotWraps(t *testing.T) {
	knownWrap := map[int]string{
		20: `{"op":"wcet","design":"regular","width":20,"height":20,"core":{"x":19,"y":19},"workload":"matrix"} answers 11782562507663336094, the true value modulo 2^64`,
		28: `{"op":"wcet","design":"regular","width":28,"height":28,"core":{"x":27,"y":27},"workload":"matrix"} answers 6194745 while the same flow's wctt answers 18446744073709551615`,
	}
	for _, size := range []int{8, 16, 20, 28} {
		t.Run(fmt.Sprintf("%dx%d", size, size), func(t *testing.T) {
			p := DefaultPlatform()
			p.Dim = mesh.MustDim(size, size)
			e, err := p.Engine()
			if err != nil {
				t.Fatal(err)
			}
			u, err := e.memoryRoundTrips(context.Background(), network.DesignRegular)
			if err != nil {
				t.Fatal(err)
			}
			var wrapped []string
			for _, b := range workload.EEMBCAutomotive() {
				for i, core := range p.Dim.AllNodes() {
					got, err := e.BenchmarkWCET(context.Background(), network.DesignRegular, core, b)
					if err != nil {
						t.Fatal(err)
					}
					floor := new(big.Int).Mul(new(big.Int).SetUint64(b.MemoryAccesses()), new(big.Int).SetUint64(u.load[i]))
					if !floor.IsUint64() {
						floor.SetUint64(math.MaxUint64)
					}
					if got < floor.Uint64() {
						wrapped = append(wrapped, fmt.Sprintf("%s core %v: WCET %d < %d accesses x UBD %d", b.Name, core, got, b.MemoryAccesses(), u.load[i]))
					}
				}
			}
			repro, known := knownWrap[size]
			switch {
			case known && len(wrapped) == 0:
				t.Errorf("%dx%d no longer wraps: drop it from knownWrap so it runs un-skipped", size, size)
			case known:
				t.Skipf("known wrap (ROADMAP wcet-wrap), %d cells, first: %s\nreproduce: %s", len(wrapped), wrapped[0], repro)
			case len(wrapped) > 0:
				t.Errorf("%d cells below accesses x UBD, first: %s", len(wrapped), wrapped[0])
			}
		})
	}
}
