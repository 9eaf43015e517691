package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// flatAccepted and flatDeclined are the committed seed corpus of
// FuzzFlatDecodeMatchesJSON: the shapes the flat decoder accepts, and one line
// for every rule of encoding/json it must decline rather than re-implement.
var flatAccepted = []string{
	`{"id":1,"op":"ping"}`,
	`{"op":"ping"}`,
	`{"id":2,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
	`{"id":3,"op":"wctt","design":"waw+wap","width":8,"height":8,"payload_bits":512,"src":{"x":1,"y":2},"dst":{"x":7,"y":0}}`,
	`{"id":4,"op":"wcet","design":"waw+wap","width":4,"height":4,"core":{"x":2,"y":1},"workload":"a2time","max_packet_flits":4}`,
	`{"id":5,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3},"timeout_ms":1000}`,
	`{"id":6,"op":"wctt","design":"waw+wap","width":8,"height":8,"topology":"cmesh","src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
	`{"id":7,"op":"wctt","design":"regular","width":4,"height":4,"topology":"cmesh2","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
	`{"id":-8,"op":"wctt","design":"nope","width":-4,"height":0,"src":{"y":3},"dst":{"y":1,"x":2}}`,
	`{"id":9,"op":"wctt","design":"regular","width":4,"height":4}`,
	`{"id":10,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":0,"y":0}}`,
	`{"id":11,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":9,"y":0},"dst":{"x":0,"y":0}}`,
	`{"id":999999999999999999,"op":"ping"}`,
	// payload_bits at the ceiling, one past it and negative (MaxInt64, 19 digits, is declined)
	`{"id":50,"op":"wctt","design":"waw+wap","width":8,"height":8,"payload_bits":4294967296,"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
	`{"id":51,"op":"wctt","design":"waw+wap","width":8,"height":8,"payload_bits":4294967297,"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
	`{"id":53,"op":"wctt","design":"waw+wap","width":8,"height":8,"payload_bits":-1,"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
	// max_packet_flits at the ceiling and one past it (2^62, 19 digits, is declined)
	`{"id":55,"op":"wcet","design":"regular","width":8,"height":8,"core":{"x":7,"y":7},"workload":"matrix","max_packet_flits":65536}`,
	`{"id":56,"op":"wcet","design":"regular","width":8,"height":8,"core":{"x":7,"y":7},"workload":"matrix","max_packet_flits":65537}`,
	// every whitespace placement
	" \t{ \"id\" : 12 , \"op\" : \"wctt\" , \"design\" : \"regular\" , \"width\" : 4 , \"height\" : 4 , \"src\" : { \"x\" : 0 , \"y\" : 0 } , \"dst\" : { \"x\" : 3 , \"y\" : 3 } } \r",
	// the vector verbs: queries last, first and in the middle, every
	// whitespace placement, empty, absent, 5-element tuples
	`{"id":16,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3]]}`,
	`{"id":54,"op":"batch","design":"regular","width":8,"height":8,"queries":[[0,0,7,7,4294967296],[0,0,7,7,9223372036854775807]]}`,
	`{"id":17,"op":"wcet-batch","design":"regular","width":4,"height":4,"workload":"cacheb","queries":[[0,0]]}`,
	`{"id":58,"op":"wcet-batch","design":"regular","width":8,"height":8,"workload":"matrix","max_packet_flits":65537,"queries":[[7,7]]}`,
	`{"queries":[[0,0,3,3],[3,3,0,0]],"id":60,"op":"batch","design":"waw+wap","width":4,"height":4}`,
	`{"id":61,"op":"batch","queries":[[0,0,3,3],[1,1,2,2],[3,0,0,3]],"design":"waw+wap","width":4,"height":4,"payload_bits":512}`,
	"{\"id\":62,\"op\":\"batch\",\"design\":\"regular\",\"width\":4,\"height\":4,\"queries\" : [ [ 0 , 0 ,\t3 , 3 ] ,[1,1,2,2]\t] }",
	"{\"id\":77,\"op\":\"batch\",\"design\":\"regular\",\"width\":4,\"height\":4,\"queries\":[[0, 0,\t3,\n3], [1,1,2,2]]}",
	`{"id":63,"op":"batch","design":"regular","width":4,"height":4,"queries":[]}`,
	`{"id":64,"op":"batch","design":"regular","width":4,"height":4,"queries":[ ]}`,
	`{"id":65,"op":"batch","design":"regular","width":4,"height":4}`,
	`{"id":66,"op":"batch","design":"waw+wap","width":4,"height":4,"queries":[[0,0,3,3,512],[0,0,3,3],[0,0,3,3,-1]]}`,
	`{"id":67,"op":"batch","design":"waw+wap","width":8,"height":8,"topology":"cmesh","timeout_ms":1000,"queries":[[0,0,7,7]]}`,
	`{"id":68,"op":"wcet-batch","design":"waw+wap","width":4,"height":4,"workload":"a2time","queries":[ [0,0] , [3,3] ]}`,
	// tuples only the verb can refuse: too short, too long, off the mesh, a
	// self flow after good ones, the int64 range; -0 is parseTuples' to read
	`{"id":69,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3]]}`,
	`{"id":70,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3,4,5]]}`,
	`{"id":71,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,1,1],[0,0,2,2],[0,0,9,9]]}`,
	`{"id":72,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,1,1],[2,2,2,2]]}`,
	`{"id":73,"op":"batch","design":"regular","width":4,"height":4,"queries":[[9223372036854775807,-9223372036854775808,0,0]]}`,
	`{"id":74,"op":"batch","design":"regular","width":4,"height":4,"queries":[[-0,0,3,3]]}`,
	`{"id":75,"op":"wcet-batch","design":"regular","width":4,"height":4,"workload":"cacheb","queries":[[0,0,0]]}`,
	`{"id":76,"op":"wcet-batch","design":"regular","width":4,"height":4,"workload":"nope","queries":[[0,0]]}`,
}

var flatDeclined = []string{
	// other verbs, nesting, unknown and differently-cased keys
	`{}`,
	`{"id":13}`,
	`{"id":14,"op":"stats"}`,
	`{"id":15,"op":"warp"}`,
	`{"id":18,"op":"ping","extra":1}`,
	`{"ID":19,"op":"ping"}`,
	`{"id":20,"Op":"ping"}`,
	`{"id":21,"op":"ping","OP":"wctt"}`,
	`{"id":22,"op":"wctt","design":"regular","width":4,"height":4,"src":{"X":1,"y":0},"dst":{"x":3,"y":3}}`,
	`{"id":23,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":1,"y":0,"z":2},"dst":{"x":3,"y":3}}`,
	`{"id":24,"op":"wctt","design":"regular","width":4,"height":4,"src":{},"dst":{"x":3,"y":3}}`,
	`{"id":25,"op":"wctt","design":"regular","width":4,"height":4,"src":[0,0],"dst":{"x":3,"y":3}}`,
	// duplicate keys (last wins in encoding/json)
	`{"id":26,"id":27,"op":"ping"}`,
	`{"id":28,"op":"ping","op":"wctt"}`,
	`{"id":29,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":1,"x":2},"dst":{"x":3,"y":3}}`,
	`{"id":30,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"src":{"x":1,"y":1},"dst":{"x":3,"y":3}}`,
	// null, floats, exponents, leading zeros, -0, big integers
	`{"id":null,"op":"ping"}`,
	`{"id":31,"op":null}`,
	`{"id":32,"op":"wctt","design":"regular","width":4,"height":4,"src":null,"dst":{"x":3,"y":3}}`,
	`{"id":1e2,"op":"ping"}`,
	`{"id":1.0,"op":"ping"}`,
	`{"id":1.5,"op":"ping"}`,
	`{"id":-0,"op":"ping"}`,
	`{"id":007,"op":"ping"}`,
	`{"id":-,"op":"ping"}`,
	`{"id":12345678901234567890,"op":"ping"}`,
	`{"id":9223372036854775807,"op":"ping"}`,
	`{"id":9223372036854775808,"op":"ping"}`,
	`{"id":33,"op":"wctt","design":"regular","width":99999999999999999999,"height":4}`,
	`{"id":52,"op":"wctt","design":"waw+wap","width":8,"height":8,"payload_bits":9223372036854775807,"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
	`{"id":57,"op":"wcet","design":"regular","width":8,"height":8,"core":{"x":7,"y":7},"workload":"matrix","max_packet_flits":4611686018427387904}`,
	`{"id":"34","op":"ping"}`,
	`{"id":true,"op":"ping"}`,
	// escapes, control bytes, UTF-8, BOM
	`{"id":35,"op":"wc\u0074t","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
	`{"id":36,"op":"wctt","design":"regu\lar","width":4,"height":4}`,
	`{"id":37,"op":"wctt","design":"reg\"ular","width":4,"height":4}`,
	`{"id":38,"op":"wctt","design":"régulier","width":4,"height":4}`,
	"{\"id\":39,\"op\":\"wctt\",\"design\":\"re\tgular\",\"width\":4,\"height\":4}",
	"{\"id\":40,\"op\":\"wctt\",\"design\":\"\xff\xfe\",\"width\":4,\"height\":4}",
	"\xef\xbb\xbf" + `{"id":41,"op":"ping"}`,
	`{"id":42,"op":"ping","design":"\u0041\n"}`,
	// trailing garbage, truncation, not an object
	`{"id":43,"op":"ping"} x`,
	`{"id":44,"op":"ping"}{"id":45,"op":"ping"}`,
	`{"id":46,"op":"ping"`,
	`{"id":47,"op":"ping",}`,
	`{"id":48 "op":"ping"}`,
	`{"id":49,"op":"pin`,
	`[1,2,3]`,
	`"ping"`,
	`42`,
	``,
	` `,
	// queries that is not parseTuples' grammar, twice, or on another verb
	`{"id":80,"op":"batch","design":"regular","width":4,"height":4,"queries":[1,,2]}`,
	`{"id":81,"op":"batch","design":"regular","width":4,"height":4,"queries":[[1,,2]]}`,
	`{"id":82,"op":"batch","design":"regular","width":4,"height":4,"queries":[[1.0,2,3,4]]}`,
	`{"id":83,"op":"batch","design":"regular","width":4,"height":4,"queries":[[1e2,2,3,4]]}`,
	`{"id":84,"op":"batch","design":"regular","width":4,"height":4,"queries":[[01,2,3,4]]}`,
	`{"id":85,"op":"batch","design":"regular","width":4,"height":4,"queries":[[[0,0,3,3]]]}`,
	`{"id":86,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3],]}`,
	`{"id":87,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3,]]}`,
	`{"id":88,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3]`,
	`{"id":89,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3]}`,
	`{"id":90,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3]]]}`,
	`{"id":91,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,1,1]],"queries":[[0,0,3,3]]}`,
	`{"id":92,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3},"queries":[[0,0,3,3]]}`,
	`{"id":93,"op":"ping","queries":[]}`,
	`{"id":94,"op":"batch","design":"regular","width":4,"height":4,"queries":null}`,
	`{"id":95,"op":"batch","design":"regular","width":4,"height":4,"queries":[[]]}`,
	`{"id":96,"op":"batch","design":"regular","width":4,"height":4,"queries":[0,0,3,3]}`,
	`{"id":97,"op":"batch","design":"regular","width":4,"height":4,"queries":"[[0,0,3,3]]"}`,
	`{"id":98,"op":"batch","design":"regular","width":4,"height":4,"queries":[["0",0,3,3]]}`,
	`{"id":99,"op":"batch","design":"regular","width":4,"height":4,"queries":[[9223372036854775808,0,3,3]]}`,
	`{"id":100,"op":"batch","design":"regular","width":4,"height":4,"Queries":[[0,0,3,3]]}`,
	`{"id":101,"op":"b\u0061tch","design":"regular","width":4,"height":4,"queries":[[0,0,3,3]]}`,
	`{"id":102,"op":"wcet-batch","design":"regular","width":4,"height":4,"workload":"cacheb","queries":[[0,0],[1,1]] x}`,
}

// FuzzFlatDecodeMatchesJSON is the proof that the flat decoder accepts a
// strict subset of encoding/json: whenever it accepts a line, the Request is
// the one json.Unmarshal produces, field for field, and its tuple count the
// length of queries; and whatever the line, error lines included, a one-line
// ServeLines (flat decoder first, reader-goroutine answer where it applies)
// answers with the bytes of the generic path: handleLine with no Request,
// which is a pool worker's json.Unmarshal and nothing else.
func FuzzFlatDecodeMatchesJSON(f *testing.F) {
	for _, corpus := range [][]string{flatAccepted, flatDeclined} {
		for _, line := range corpus {
			f.Add([]byte(line))
		}
	}
	s := NewServer(Config{Workers: 2})
	f.Cleanup(s.Close)
	var dec flatDecoder
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Request
		jsonErr := json.Unmarshal(line, &want)
		got, ok := dec.decode(line)
		if ok && jsonErr != nil {
			t.Fatalf("flat decoder accepted %q, encoding/json says %v", line, jsonErr)
		}
		if ok && !reflect.DeepEqual(*got, want) {
			t.Fatalf("flat decoder read %q as\n%+v\nencoding/json as\n%+v", line, *got, want)
		}
		if ok && want.Queries != nil {
			var tuples [][]int64
			if err := json.Unmarshal(want.Queries, &tuples); err != nil || dec.tl.n != len(tuples) {
				t.Fatalf("flat decoder counted %d tuples in %q, encoding/json reads %d (%v)", dec.tl.n, line, len(tuples), err)
			}
		}
		// On any valid JSON a rejection echoes the id encoding/json reads;
		// on a malformed line the scan may recover one where that gives up.
		if id, ok := lineID(line); ok && json.Valid(line) {
			var hdr struct {
				ID int64 `json:"id"`
			}
			_ = json.Unmarshal(line, &hdr)
			if id != hdr.ID {
				t.Fatalf("lineID(%q) = %d, encoding/json reads id %d", line, id, hdr.ID)
			}
		}

		// The response comparison stays off inputs that are not one frame,
		// whose answer is not a function of the line (stats), or whose cost
		// the fuzzer could blow up (scenario runs, huge meshes).
		if bytes.IndexByte(line, '\n') >= 0 {
			return
		}
		if jsonErr == nil && (want.Op == "scenario" || want.Op == "stats" ||
			want.Width > 32 || want.Height > 32 || len(want.Queries) > 1<<12) {
			return
		}
		var out bytes.Buffer
		if err := s.ServeLines(context.Background(), bytes.NewReader(append(line, '\n')), &out); err != nil {
			t.Fatalf("ServeLines(%q): %v", line, err)
		}
		// What the line scanner hands on: one trailing CR dropped, blank
		// lines skipped.
		frame := bytes.TrimSuffix(line, []byte("\r"))
		var generic []byte
		if len(bytes.TrimSpace(frame)) > 0 {
			generic = append(s.handleLine(context.Background(), frame, nil, nil).b, '\n')
		}
		if !bytes.Equal(out.Bytes(), generic) {
			t.Fatalf("line %q\nServeLines   %q\ngeneric path %q", line, out.Bytes(), generic)
		}
	})
}

// TestFlatDecodeAcceptSet pins which side of the split the corpus lines fall
// on, so a decoder that declines everything (and still passes the fuzz
// target) fails here.
func TestFlatDecodeAcceptSet(t *testing.T) {
	var dec flatDecoder
	for _, line := range flatAccepted {
		if _, ok := dec.decode([]byte(line)); !ok {
			t.Errorf("declined: %s", line)
		}
	}
	for _, line := range flatDeclined {
		if _, ok := dec.decode([]byte(line)); ok {
			t.Errorf("accepted: %s", line)
		}
	}
}

// TestLineID pins the rejection path's id recovery: a byte search for a line
// that leads with a flat integer id, whatever else it carries, and a decline
// wherever encoding/json could read another id.
func TestLineID(t *testing.T) {
	for _, c := range []struct {
		line string
		id   int64
		ok   bool
	}{
		{`{"id":7,"op":"ping"}`, 7, true},
		{`{"id":7}`, 7, true},
		{` { "id" : -12 , "op":"batch","queries":[[1,2,3,4],[5,6,7,8]]} `, -12, true},
		{`{"id":9,"op":"scenario","spec":{"name":"grid","mode":"wctt"}}`, 9, true},
		{`{"op":"ping","id":7}`, 0, false},
		{`{"op":"ping"}`, 0, false},
		{`{"id":1,"id":2}`, 0, false},
		{`{"id":1,"ID":2}`, 0, false},
		{`{"id":1,"spec":{"Id":2}}`, 0, false},
		{`{"id":1,"\u0069d":2}`, 0, false},
		{`{"Id":1}`, 0, false},
		{`{"id":1.5}`, 0, false},
		{`{"id":"1"}`, 0, false},
		{`{"id":1 "op":"ping"}`, 0, false},
		{`[{"id":1}]`, 0, false},
		{``, 0, false},
	} {
		id, ok := lineID([]byte(c.line))
		if ok != c.ok || (ok && id != c.id) {
			t.Errorf("lineID(%s) = %d, %v; want %d, %v", c.line, id, ok, c.id, c.ok)
		}
	}
}
