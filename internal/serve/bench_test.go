package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// BenchmarkServeLines measures ServeLines in process, one op per bound, on
// warm models: batch is the vectorised verb on every flow of an 8x8 mesh
// (lines of up to 65536 tuples), batch4032 the serve-batch workload's lines
// (4032 tuples, a design and payload per line), and batch-sparse 16-tuple
// lines of random pairs on a 64x64 mesh, where nearly every tuple is a group
// of its own in the model's grouped kernel sweeps. flat is the co-simulator's
// shape — one wctt line per bound, answered on the reader goroutine — and
// generic the same lines with one escaped character in the op string, which
// the flat decoder declines, so every line pays encoding/json, a pool
// hand-off and the ordered queue. For a developer to run by hand, at -cpu 1
// (the generic pipeline's stages overlap on several cores, and ns/op stops
// being work per line); over real TCP the batch4032 and flat paths are the
// serve-batch and serve-lines workloads of bench/, which is what CI compares.
//
//	go test -run xxx -bench BenchmarkServeLines -cpu 1 ./internal/serve/
func BenchmarkServeLines(b *testing.B) {
	type flow struct{ sx, sy, dx, dy int }
	var flows []flow
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s != d {
				flows = append(flows, flow{s % 8, s / 8, d % 8, d / 8})
			}
		}
	}
	// batch renders n bounds as batch lines of perLine tuples. With vary, line
	// i starts elsewhere in the flow list and takes the design and payload_bits
	// of line i%32 of the serve-batch workload (bench/serveload.go).
	batch := func(perLine int, vary bool) func(n int) []byte {
		return func(n int) []byte {
			var buf bytes.Buffer
			for q := 0; q < n; q++ {
				line, shift := q/perLine, 0
				if vary {
					shift = line % 32 * 127
				}
				if q%perLine == 0 {
					design, payload := "waw+wap", ""
					if vary && line%2 == 0 {
						design = "regular"
					}
					if vary && line/2%2 == 1 {
						payload = `,"payload_bits":512`
					}
					fmt.Fprintf(&buf, `{"id":%d,"op":"batch","design":"%s","width":8,"height":8%s,"queries":[`, line%32+1, design, payload)
				}
				f := flows[(q+shift)%len(flows)]
				fmt.Fprintf(&buf, "[%d,%d,%d,%d]", f.sx, f.sy, f.dx, f.dy)
				if q%perLine == perLine-1 || q == n-1 {
					buf.WriteString("]}\n")
				} else {
					buf.WriteByte(',')
				}
			}
			return buf.Bytes()
		}
	}
	// sparse renders n bounds as 16-tuple batch lines of random pairs of a
	// 64x64 mesh, the designs alternating by line.
	sparse := func(n int) []byte {
		rng := rand.New(rand.NewSource(1))
		var buf bytes.Buffer
		for q := 0; q < n; q++ {
			if q%16 == 0 {
				design := "waw+wap"
				if q/16%2 == 0 {
					design = "regular"
				}
				fmt.Fprintf(&buf, `{"id":%d,"op":"batch","design":"%s","width":64,"height":64,"queries":[`, q/16+1, design)
			}
			src, dst := rng.Intn(64*64), rng.Intn(64*64-1)
			if dst >= src {
				dst++
			}
			fmt.Fprintf(&buf, "[%d,%d,%d,%d]", src%64, src/64, dst%64, dst/64)
			if q%16 == 15 || q == n-1 {
				buf.WriteString("]}\n")
			} else {
				buf.WriteByte(',')
			}
		}
		return buf.Bytes()
	}
	lines := func(op string) func(n int) []byte {
		return func(n int) []byte {
			var buf bytes.Buffer
			for i := 0; i < n; i++ {
				f := flows[i%len(flows)]
				fmt.Fprintf(&buf, `{"id":%d,"op":%s,"design":"waw+wap","width":8,"height":8,"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`+"\n",
					i+1, op, f.sx, f.sy, f.dx, f.dy)
			}
			return buf.Bytes()
		}
	}
	for _, v := range []struct {
		name   string
		render func(n int) []byte
	}{{"batch", batch(65536, false)}, {"batch4032", batch(len(flows), true)}, {"batch-sparse", sparse},
		{"flat", lines(`"wctt"`)}, {"generic", lines(`"wct\u0074"`)}} {
		b.Run(v.name, func(b *testing.B) {
			s := NewServer(Config{})
			defer s.Close()
			serve := func(in []byte) {
				if err := s.ServeLines(context.Background(), bytes.NewReader(in), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			serve(batch(len(flows), false)(len(flows))) // builds the models
			serve(sparse(32))
			in := v.render(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			serve(in)
			b.StopTimer()
			if st := s.Stats(); st.Errors != 0 || st.Queries != uint64(len(flows)+32+b.N) {
				b.Fatalf("%d bounds answered with %d failed lines, want %d and 0", st.Queries, st.Errors, len(flows)+32+b.N)
			}
		})
	}
}
