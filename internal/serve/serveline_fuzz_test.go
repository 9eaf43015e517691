package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// fixedBatchLine follows every FuzzServeLine input on the same connection: a
// flat batch line, whose answer must not depend on what came before it.
const fixedBatchLine = `{"id":424242,"op":"batch","design":"waw+wap","width":4,"height":4,"payload_bits":512,"queries":[[0,0,3,3],[1,2,3,0],[3,3,0,0,64]]}`

// FuzzServeLine is the hostile-input target of the generic request decoder
// and everything behind it: a fuzzer-chosen line, then fixedBatchLine,
// through ServeLines on a server whose query and scenario budgets are a few
// milliseconds. It must not panic; it must write exactly one response line
// per non-blank request line, each a JSON object with a boolean "ok"; and
// fixedBatchLine must get the answer a fresh server gives it (or, on a host
// too loaded to start it within its budget, the coded deadline error). The
// committed corpus (testdata/fuzz/FuzzServeLine) holds flat, escaped and
// malformed lines of every verb, and several lines in one input.
func FuzzServeLine(f *testing.F) {
	fresh := NewServer(Config{Workers: 1})
	want := fresh.handleLine(context.Background(), []byte(fixedBatchLine), nil, nil).b
	fresh.Close()
	if !bytes.HasPrefix(want, []byte(`{"id":424242,"ok":true,"cycles":[`)) {
		f.Fatalf("the fixed line is answered %s", want)
	}
	deadline := []byte(`{"id":424242,"ok":false,"error":"batch: deadline exceeded","code":"deadline","retryable":false}`)

	s := NewServer(Config{Workers: 2, QueryTimeout: 5 * time.Millisecond, ScenarioTimeout: 5 * time.Millisecond})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, line []byte) {
		in := append(append(append([]byte(nil), line...), '\n'), fixedBatchLine+"\n"...)
		var out bytes.Buffer
		if err := s.ServeLines(context.Background(), bytes.NewReader(in), &out); err != nil {
			t.Fatalf("ServeLines(%q): %v", line, err)
		}
		requests := 1
		for _, l := range bytes.Split(line, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				requests++
			}
		}
		resps := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
		if !bytes.HasSuffix(out.Bytes(), []byte("\n")) || len(resps) != requests {
			t.Fatalf("input %q: %d request lines, answered with %q", line, requests, out.Bytes())
		}
		for _, r := range resps {
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(r, &obj); err != nil {
				t.Fatalf("input %q: response %q is not a JSON object: %v", line, r, err)
			}
			if ok := string(obj["ok"]); ok != "true" && ok != "false" {
				t.Fatalf("input %q: response %q has no boolean ok", line, r)
			}
		}
		if got := resps[len(resps)-1]; !bytes.Equal(got, want) && !bytes.Equal(got, deadline) {
			t.Fatalf("input %q: the fixed line was answered\n%s\nwant\n%s", line, got, want)
		}
	})
}
