package traffic

import (
	"math"
	"testing"

	"repro/internal/flit"
	"repro/internal/mesh"
)

// BenchmarkTick times the 256 nodes of a 16x16 mesh at 2 msgs/node/kcycle —
// the sim-sparse point of bench/, where 998 of 1000 draws say "no message" —
// three ways, each per Tick:
//
//   - kernel: the generator's Tick, which hands out a chunk drawn ahead on a
//     second goroutine as pooled messages. Tick does so little here that it
//     mostly waits for the producer, so with two cores free this reads about
//     as fill does; with one (-cpu 1) it is the two halves' sum.
//   - fill: the producer alone, drawing chunk after chunk into one buffer on
//     the benchmark's goroutine (ns/tick: the time of a chunk over its Ticks).
//   - reference: the per-node loop over math/rand both halves are pinned to
//     (referenceUniformTick, which builds its messages on the heap).
//
// For a developer to run by hand; CI compares sim-sparse end to end instead.
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
	b.Run("16x16-rate2/fill", func(b *testing.B) {
		gen, err := NewUniformRandom(d, seed, rate, RequestPayloadBits, math.MaxInt32)
		if err != nil {
			b.Fatal(err)
		}
		var c chunk
		ticks := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen.p.fill(&c)
			ticks += len(c.counts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
	})
	b.Run("16x16-rate2/reference", func(b *testing.B) {
		ref := &reference{nodes: d.AllNodes(), rng: Rand(seed), rate: rate, payload: RequestPayloadBits, remaining: math.MaxInt32}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceUniformTick(ref)
		}
	})
}
