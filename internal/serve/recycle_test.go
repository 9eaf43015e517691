package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// stressLine is one request of TestServeRecycledBuffersStress and the answer
// its verb's own non-batch path gives: the bounds, one per tuple, or the
// error text, or the scenario result's JSON.
type stressLine struct {
	line   string // without id and newline: `"op":...}`
	cycles []uint64
	err    string
	result []byte
}

// TestServeRecycledBuffersStress holds the recycled line and response buffers
// to their owners: four connections at once send interleaved batch lines on
// both sides of maxRecycled (line and response), for both designs and with
// mixed per-tuple payloads, batch lines that fail partway (a tuple off the
// mesh, a payload past the limit), and wcet-batch and scenario lines between
// them. Every response must equal the verb's own non-batch path element by
// element: MessageWCTT per tuple for batch, BenchmarkWCET per core for
// wcet-batch, the executed scenario's JSON for scenario. A buffer recycled
// before the writer has copied it is refilled by another line's worker, and
// its connection then reads that line's bytes (under -race, a data race too).
func TestServeRecycledBuffersStress(t *testing.T) {
	const conns, rounds = 4, 3
	d := mesh.MustDim(8, 8)
	m, err := analysis.NewModel(analysis.DefaultParams(d))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	nodes := d.AllNodes()
	payloads := []int{0, 512, 4096, 1 << 20}
	var cases []stressLine

	// batch renders n random tuples, the payload of each drawn from payloads
	// (0: a 4-tuple, which takes the line's default); bad, if not negative,
	// is the index of a tuple replaced by badTuple.
	batch := func(design string, n, bad int, badTuple string) {
		dz, err := scenario.ParseDesign(design)
		if err != nil {
			t.Fatal(err)
		}
		sc := stressLine{line: fmt.Sprintf(`"op":"batch","design":%q,"width":8,"height":8,"queries":[`, design)}
		for i := 0; i < n; i++ {
			if i > 0 {
				sc.line += ","
			}
			if i == bad {
				sc.line += badTuple
				continue
			}
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes)-1)]
			if dst == src {
				dst = nodes[len(nodes)-1]
			}
			p := payloads[rng.Intn(len(payloads))]
			if p == 0 {
				sc.line += fmt.Sprintf("[%d,%d,%d,%d]", src.X, src.Y, dst.X, dst.Y)
				p = traffic.RequestPayloadBits
			} else {
				sc.line += fmt.Sprintf("[%d,%d,%d,%d,%d]", src.X, src.Y, dst.X, dst.Y, p)
			}
			c, err := m.MessageWCTT(dz, src, dst, p)
			if err != nil {
				t.Fatal(err)
			}
			sc.cycles = append(sc.cycles, c)
		}
		sc.line += "]}"
		if bad >= 0 {
			sc.cycles = nil
		}
		cases = append(cases, sc)
	}
	for _, design := range []string{"regular", "waw+wap"} {
		for _, n := range []int{3, 400, 4032, 16000} {
			batch(design, n, -1, "")
		}
	}
	// The response's bytes: its header and one number and comma per bound.
	respLen := func(sc stressLine) int {
		n := 32
		for _, c := range sc.cycles {
			n += len(strconv.FormatUint(c, 10)) + 1
		}
		return n
	}
	if len(cases[3].line) <= maxRecycled || len(cases[2].line) > maxRecycled || respLen(cases[3]) <= maxRecycled || respLen(cases[2]) > maxRecycled {
		t.Fatalf("batch lines of %d and %d bytes, answered in about %d and %d, want one of each each side of %d",
			len(cases[2].line), len(cases[3].line), respLen(cases[2]), respLen(cases[3]), maxRecycled)
	}
	_, offMesh := m.MessageWCTT(network.DesignRegular, mesh.Node{X: 8, Y: 0}, mesh.Node{}, 512)
	if offMesh == nil {
		t.Fatal("an off-mesh source was answered")
	}
	batch("regular", 3000, 2500, "[8,0,0,0,512]")
	cases[len(cases)-1].err = offMesh.Error()
	batch("waw+wap", 3000, 1200, "[0,0,1,1,4294967297]")
	cases[len(cases)-1].err = checkPayload(4294967297).Error()

	eng, err := scenario.SharedEngine(mesh.MustDim(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.BenchmarkByName("cacheb")
	if err != nil {
		t.Fatal(err)
	}
	wcetLine := func(cores ...mesh.Node) {
		sc := stressLine{line: `"op":"wcet-batch","design":"waw+wap","width":4,"height":4,"workload":"cacheb","queries":[`}
		for i, c := range cores {
			if i > 0 {
				sc.line += ","
			}
			sc.line += fmt.Sprintf("[%d,%d]", c.X, c.Y)
			w, err := eng.BenchmarkWCET(context.Background(), network.DesignWaWWaP, c, bench)
			if err != nil && sc.err == "" {
				sc.err, sc.cycles = err.Error(), nil
			}
			if sc.err == "" {
				sc.cycles = append(sc.cycles, w)
			}
		}
		sc.line += "]}"
		cases = append(cases, sc)
	}
	wcetLine(mesh.MustDim(4, 4).AllNodes()...)
	wcetLine(mesh.Node{}, mesh.Node{X: 3, Y: 3}, mesh.Node{X: 4, Y: 0}, mesh.Node{X: 1, Y: 1})

	spec := `{"name":"stress","mode":"wctt","width":4,"height":4,"design":"regular"}`
	var sp scenario.Spec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	res, err := scenario.ExecuteContext(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	result, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, stressLine{line: `"op":"scenario","spec":` + spec + "}", result: result})

	s := NewServer(Config{Workers: 4})
	defer s.Close()
	var wg sync.WaitGroup
	for conn := range conns {
		order := rand.New(rand.NewSource(int64(conn))).Perm(len(cases) * rounds)
		reqR, reqW := io.Pipe()
		respR, respW := io.Pipe()
		wg.Add(3)
		go func() {
			defer wg.Done()
			defer respW.Close()
			if err := s.ServeLines(context.Background(), reqR, respW); err != nil {
				t.Errorf("connection %d: ServeLines: %v", conn, err)
			}
		}()
		go func() {
			defer wg.Done()
			defer reqW.Close()
			bw := bufio.NewWriter(reqW)
			for id, k := range order {
				fmt.Fprintf(bw, `{"id":%d,%s`+"\n", id, cases[k%len(cases)].line)
			}
			if err := bw.Flush(); err != nil {
				t.Errorf("connection %d: %v", conn, err)
			}
		}()
		go func() {
			defer wg.Done()
			defer respR.Close()
			rd := bufio.NewReader(respR)
			for id, k := range order {
				got, err := rd.ReadBytes('\n')
				if err != nil {
					t.Errorf("connection %d: line %d: %v", conn, id, err)
					return
				}
				if msg := checkStress(got, int64(id), cases[k%len(cases)]); msg != "" {
					t.Errorf("connection %d: line %d (case %d): %s", conn, id, k%len(cases), msg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkStress compares one response with the answer of its case and
// describes the first difference ("" when there is none).
func checkStress(got []byte, id int64, want stressLine) string {
	var r response
	if err := json.Unmarshal(got, &r); err != nil {
		return fmt.Sprintf("response %.120q is not JSON: %v", got, err)
	}
	switch {
	case r.ID != id:
		return "id " + strconv.FormatInt(r.ID, 10)
	case want.err != "":
		if r.OK || r.Error != want.err {
			return fmt.Sprintf("answered %.120q, want the error %q", got, want.err)
		}
	case !r.OK:
		return "failed: " + r.Error
	case want.result != nil:
		if string(r.Result) != string(want.result) {
			return fmt.Sprintf("result %.120q, want %.120q", r.Result, want.result)
		}
	default:
		var cycles []uint64
		if err := json.Unmarshal(r.Cycles, &cycles); err != nil {
			return fmt.Sprintf("cycles %.120q: %v", r.Cycles, err)
		}
		if len(cycles) != len(want.cycles) {
			return fmt.Sprintf("%d bounds, want %d", len(cycles), len(want.cycles))
		}
		for i, c := range cycles {
			if c != want.cycles[i] {
				return fmt.Sprintf("bound %d is %d, want %d", i, c, want.cycles[i])
			}
		}
	}
	return ""
}
