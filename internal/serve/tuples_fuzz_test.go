package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// tupleCorpus is the committed seed corpus of FuzzParseTuples: the cases of
// TestParseTuples plus one input for every rule of encoding/json the scanner
// has to agree with.
var tupleCorpus = []string{
	// TestParseTuples
	` [ [1,2,3,4] , [5,6,7,8,-9] ] `,
	`[]`,
	`[[1,2,3]]`,
	`[[1,2,3,4,5,6]]`,
	`[[1,2,3,4]`,
	`[[1,2,3,4]] trailing`,
	`[[1,2,x,4]]`,
	// both verbs' shapes, every whitespace byte
	`[[0,0]]`,
	`[[0,0],[3,3]]`,
	"[\t[ 0 ,\r\n1 , 2 , 3 ] ]\n",
	"[[1, 2,\t3,\n4], [5,6,\r7,8]]",
	// the int64 range and one past it on either side
	`[[9223372036854775807,-9223372036854775808]]`,
	`[[9223372036854775808,0]]`,
	`[[-9223372036854775809,0]]`,
	`[[4611686018427387910,0]]`,
	`[[99999999999999999999999999,0]]`,
	// a batch tuple's payload_bits at the ceiling, past it and negative
	`[[0,0,7,7,4294967296],[0,0,7,7,4294967297]]`,
	`[[0,0,7,7,9223372036854775807],[0,0,7,7,-1]]`,
	// floats, exponents, -0, leading zeros, bare signs
	`[[1.0,2]]`,
	`[[1.5,2]]`,
	`[[1e2,2]]`,
	`[[1E2,2]]`,
	`[[-0,0]]`,
	`[[007,1]]`,
	`[[00,1]]`,
	`[[-01,1]]`,
	`[[-,1]]`,
	`[[+1,1]]`,
	`[[1-,1]]`,
	// nested, empty and non-array elements
	`[[]]`,
	`[[[0,0]]]`,
	`[[0,[0]]]`,
	`[0,0]`,
	`[[0,0],[]]`,
	`[["0","0"]]`,
	`[[true,false]]`,
	`[{"0":0}]`,
	// null, which encoding/json reads as a no-op at every level
	`null`,
	`[null]`,
	`[[null,0]]`,
	// commas and brackets
	`[[0,0],]`,
	`[[0,0,]]`,
	`[,[0,0]]`,
	`[[,0]]`,
	`[[0 0]]`,
	`[[0,0]][[0,0]]`,
	`[[0,0]],`,
	`[`,
	`[[`,
	`[[0`,
	`[[0,`,
	`]`,
	``,
	` `,
	"\xef\xbb\xbf[[0,0]]",
	"[[0,0]]\x00",
}

// scannedTuples is parseTuples' verdict on raw and, when it accepts, the
// tuples scanTuples stores from it.
func scannedTuples(raw []byte, minLen, maxLen int) ([][]int64, error) {
	if err := parseTuples(raw, minLen, maxLen); err != nil {
		return nil, err
	}
	var tl tupleList
	scanTuples(raw, skipSpace(raw, 0), minLen, maxLen, &tl)
	var got [][]int64
	for _, t := range tl.tuples {
		got = append(got, append([]int64(nil), t.v[:t.n]...))
	}
	return got, nil
}

// FuzzParseTuples holds the hand-rolled tuple scanner under every batch and
// wcet-batch line to encoding/json: for arbitrary bytes it never panics; it
// accepts exactly when json.Unmarshal decodes the same bytes into [][]int64
// with every inner length in [minLen, maxLen]; and what it accepts it
// delivers as the same tuples in the same order. The one rule of
// encoding/json it declines rather than re-implements is null (a no-op there
// at every level), so on an input that spells null the scanner may only be
// stricter.
func FuzzParseTuples(f *testing.F) {
	for _, raw := range tupleCorpus {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var decoded [][]int64
		jsonErr := json.Unmarshal(raw, &decoded)
		for _, lens := range [][2]int{{4, 5}, {2, 2}} { // batch, wcet-batch
			minLen, maxLen := lens[0], lens[1]
			got, err := scannedTuples(raw, minLen, maxLen)
			for _, vals := range got {
				if len(vals) < minLen || len(vals) > maxLen {
					t.Fatalf("parseTuples(%q, %d, %d) delivered %d values", raw, minLen, maxLen, len(vals))
				}
			}
			want := jsonErr == nil
			for _, tuple := range decoded {
				want = want && len(tuple) >= minLen && len(tuple) <= maxLen
			}
			switch {
			case err == nil && !want:
				t.Fatalf("parseTuples(%q, %d, %d) accepted; encoding/json says %v and reads %v", raw, minLen, maxLen, jsonErr, decoded)
			case err != nil && want && !bytes.Contains(raw, []byte("null")):
				t.Fatalf("parseTuples(%q, %d, %d) = %v; encoding/json reads %v", raw, minLen, maxLen, err, decoded)
			case err == nil && len(got)+len(decoded) > 0 && !reflect.DeepEqual(got, decoded):
				t.Fatalf("parseTuples(%q, %d, %d) delivered %v, encoding/json reads %v", raw, minLen, maxLen, got, decoded)
			}
		}
	})
}
