package traffic

import (
	"math"
	"testing"

	"repro/internal/flit"
	"repro/internal/mesh"
)

// BenchmarkTick times one Tick over the 256 nodes of a 16x16 mesh at 2
// msgs/node/kcycle — the sim-sparse point of bench/, where 998 of 1000 draws
// say "no message" — through the generator's draw kernel and through the
// per-node loop over math/rand it is pinned to (referenceUniformTick, which
// builds its messages on the heap where the kernel draws from a pool). For a
// developer to run by hand; CI compares sim-sparse end to end instead.
//
//	go test -run xxx -bench BenchmarkTick ./internal/traffic/
func BenchmarkTick(b *testing.B) {
	d := mesh.MustDim(16, 16)
	const seed, rate = 3, 2
	b.Run("16x16-rate2/kernel", func(b *testing.B) {
		gen, err := NewUniformRandom(d, seed, rate, RequestPayloadBits, math.MaxInt32)
		if err != nil {
			b.Fatal(err)
		}
		pool := &flit.Pool{}
		gen.AttachPool(pool)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, msg := range gen.Tick(uint64(i)) {
				pool.PutMessage(msg)
			}
		}
	})
	b.Run("16x16-rate2/reference", func(b *testing.B) {
		ref := &reference{nodes: d.AllNodes(), rng: Rand(seed), rate: rate, payload: RequestPayloadBits, remaining: math.MaxInt32}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceUniformTick(ref)
		}
	})
}
