package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
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
	// the edges of the one-word spelling: a tuple ending exactly at the
	// array's end and one cut off 1-9 bytes before it
	`[[1,2,3,4]]`,
	`[[1,2,3,4]`,
	`[[1,2,3,4`,
	`[[1,2,3,`,
	`[[1,2,3`,
	`[[1,2,`,
	`[[1,2`,
	`[[1,`,
	`[[1`,
	`[[`,
	`[[0,0,0,0],[1,2,3,4]]`,
	`[[0,0,0,0],[1,2,3,4],[5,6,7,`,
	// a word that is one byte away from the spelling
	`[[0,0,0,0],[00,0,0,0],[-1,0,0,0]]`,
	`[[1,2,3,4,5]]`,
	`[[1,2,3,4],[1,2,3,4,5],[1,2,3,4]]`,
	`[[1,2, 3,4]]`,
	`[[ 1,2,3,4]]`,
	`[[1,2,3,4 ]]`,
	`[[1,2,3,:]]`,
	`[[1,2,3,/]]`,
	`[[1;2,3,4]]`,
	`[[1,2,3,4)]`,
	// bytes >= 0x80 inside the eight loaded bytes
	"[[1,2,3,\xb4]]",
	"[[\xb1,2,3,4]]",
	"[[1,2\xac3,4]]",
	"[[1,2,3,4\xdd]",
	"[[1,2,3,\xff]]",
}

// scannedTuples is parseTuples' verdict on raw and, when it accepts, the
// tuples scanTuples stores from it.
func scannedTuples(raw []byte, minLen, maxLen int) ([]tuple, error) {
	if err := parseTuples(raw, minLen, maxLen); err != nil {
		return nil, err
	}
	var tl tupleList
	scanTuples(raw, skipSpace(raw, 0), minLen, maxLen, &tl)
	return tl.tuples, nil
}

// scanTuplesBytewise is the oracle of scanTuples' one-word path: the scanner
// as it was before that path, every tuple read byte by byte.
func scanTuplesBytewise(raw []byte, i, minLen, maxLen int, tl *tupleList) (next int, err error) {
	tl.tuples, tl.n = tl.tuples[:0], 0
	if i >= len(raw) || raw[i] != '[' {
		return 0, fmt.Errorf("queries: expected '[' at offset %d", i)
	}
	i = skipSpace(raw, i+1)
	if i < len(raw) && raw[i] == ']' {
		return i + 1, nil // empty batch
	}
	for {
		if i >= len(raw) || raw[i] != '[' {
			return 0, fmt.Errorf("queries: expected tuple '[' at offset %d", i)
		}
		i = skipSpace(raw, i+1)
		var t tuple
		for {
			v, next := shortInt(raw, i)
			if next == i {
				if v, next, err = parseInt(raw, i); err != nil {
					return 0, err
				}
			}
			if t.n == maxLen {
				return 0, fmt.Errorf("queries: tuple longer than %d at offset %d", maxLen, i)
			}
			if t.n < tupleWidth {
				t.v[t.n] = v
			}
			t.n++
			if next < len(raw) && raw[next] == ',' {
				if i = next + 1; i < len(raw) && raw[i]-'0' <= 9 {
					continue
				}
				i = skipSpace(raw, i)
				continue
			}
			i = skipSpace(raw, next)
			if i >= len(raw) {
				return 0, fmt.Errorf("queries: unterminated tuple")
			}
			if raw[i] == ',' {
				i = skipSpace(raw, i+1)
				continue
			}
			if raw[i] == ']' {
				i++
				break
			}
			return 0, fmt.Errorf("queries: unexpected byte %q at offset %d", raw[i], i)
		}
		if t.n < minLen {
			return 0, fmt.Errorf("queries: tuple needs at least %d elements, got %d", minLen, t.n)
		}
		if tl.n < MaxBatchTuples {
			tl.tuples = append(tl.tuples, t)
		}
		tl.n++
		if i+1 < len(raw) && raw[i] == ',' && raw[i+1] == '[' {
			i++
			continue
		}
		i = skipSpace(raw, i)
		if i >= len(raw) {
			return 0, fmt.Errorf("queries: unterminated array")
		}
		if raw[i] == ',' {
			i = skipSpace(raw, i+1)
			continue
		}
		if raw[i] == ']' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("queries: unexpected byte %q at offset %d", raw[i], i)
	}
}

// scanLens are the (minLen, maxLen) pairs scanTuples is called with: the
// batch and wcet-batch verbs', and the flat decoder's, which reads tuples of
// any length.
var scanLens = [][2]int{{4, 5}, {2, 2}, {0, math.MaxInt}}

// scanAgrees fails t unless scanTuples and the byte-wise oracle give raw the
// same offset, error text, stored tuples, count and completeness. Both scan
// into lists that already hold tuples, so a tuple the scan failed on and
// left behind would show.
func scanAgrees(t *testing.T, raw []byte, minLen, maxLen int, got, want *tupleList) {
	t.Helper()
	scan := func(f func([]byte, int, int, int, *tupleList) (int, error), tl *tupleList) (int, string) {
		tl.tuples = append(tl.tuples[:0], tuple{v: [tupleWidth]int64{7, 7, 7, 7, 7}, n: 9})
		next, err := f(raw, skipSpace(raw, 0), minLen, maxLen, tl)
		tl.complete = err == nil && checkTail(raw, next) == nil
		if err != nil {
			return next, err.Error()
		}
		return next, ""
	}
	gotNext, gotErr := scan(scanTuples, got)
	wantNext, wantErr := scan(scanTuplesBytewise, want)
	if gotNext != wantNext || gotErr != wantErr || got.n != want.n || got.complete != want.complete || !slices.Equal(got.tuples, want.tuples) {
		t.Fatalf("scanTuples(%q, %d, %d) = %d, %q, n %d, complete %v, %v\nbyte-wise oracle: %d, %q, n %d, complete %v, %v",
			raw, minLen, maxLen, gotNext, gotErr, got.n, got.complete, got.tuples, wantNext, wantErr, want.n, want.complete, want.tuples)
	}
}

// FuzzParseTuples holds the hand-rolled tuple scanner under every batch and
// wcet-batch line to encoding/json: for arbitrary bytes it never panics; it
// accepts exactly when json.Unmarshal decodes the same bytes into [][]int64
// with every inner length in [minLen, maxLen]; and what it accepts it
// delivers as the same tuples in the same order. That holds under the two
// verbs' lengths and the flat decoder's (any length), and under each the
// scan gives what the byte-wise oracle gives. The scanner declines two rules
// of encoding/json rather than re-implement them, so there it may only be
// stricter: null (a no-op there at every level), and an empty tuple, which no
// verb takes.
func FuzzParseTuples(f *testing.F) {
	for _, raw := range tupleCorpus {
		f.Add([]byte(raw))
	}
	var scanned, oracle tupleList
	f.Fuzz(func(t *testing.T, raw []byte) {
		var decoded [][]int64
		jsonErr := json.Unmarshal(raw, &decoded)
		// What a scan stores of each decoded tuple: its first tupleWidth
		// elements and its length.
		var stored []tuple
		for _, vals := range decoded {
			t := tuple{n: len(vals)}
			copy(t.v[:], vals)
			stored = append(stored, t)
		}
		for _, lens := range scanLens {
			minLen, maxLen := lens[0], lens[1]
			scanAgrees(t, raw, minLen, maxLen, &scanned, &oracle)
			got, err := scannedTuples(raw, minLen, maxLen)
			for _, tuple := range got {
				if tuple.n < minLen || tuple.n > maxLen {
					t.Fatalf("parseTuples(%q, %d, %d) delivered %d values", raw, minLen, maxLen, tuple.n)
				}
			}
			want := jsonErr == nil
			for _, tuple := range decoded {
				want = want && len(tuple) >= minLen && len(tuple) <= maxLen
			}
			switch {
			case err == nil && !want:
				t.Fatalf("parseTuples(%q, %d, %d) accepted; encoding/json says %v and reads %v", raw, minLen, maxLen, jsonErr, decoded)
			case err != nil && want && !bytes.Contains(raw, []byte("null")) && !slices.ContainsFunc(decoded, isEmpty):
				t.Fatalf("parseTuples(%q, %d, %d) = %v; encoding/json reads %v", raw, minLen, maxLen, err, decoded)
			case err == nil && !slices.Equal(got, stored):
				t.Fatalf("parseTuples(%q, %d, %d) delivered %v, encoding/json reads %v", raw, minLen, maxLen, got, decoded)
			}
		}
	})
}

func isEmpty(vals []int64) bool { return len(vals) == 0 }

// TestTupleScanPathsAgree holds scanTuples to the byte-wise oracle around the
// one-word path: every 4-tuple of single digits, and every 4- and 5-tuple of
// elements from 0, 5, 9, 10, 42 and 99, spelled without spaces and with a
// space after each comma, behind a tuple that fills the list's first slot,
// with 0 to 10 bytes between the tuple and the end of the line, each once
// with the array closed there and once cut off there.
func TestTupleScanPathsAgree(t *testing.T) {
	var elems [][]int64
	for v := range 10000 {
		elems = append(elems, []int64{int64(v / 1000), int64(v / 100 % 10), int64(v / 10 % 10), int64(v % 10)})
	}
	mixed := []int64{0, 5, 9, 10, 42, 99}
	for n := 4; n <= 5; n++ {
		for k := range int(math.Pow(6, float64(n))) {
			e := make([]int64, n)
			for j := range e {
				e[j] = mixed[k%6]
				k /= 6
			}
			elems = append(elems, e)
		}
	}
	var got, want tupleList
	var line []byte
	for _, e := range elems {
		for _, sep := range []string{",", ", "} {
			s := make([]string, len(e))
			for j, v := range e {
				s[j] = fmt.Sprint(v)
			}
			tuple := "[" + strings.Join(s, sep) + "]"
			for pad := 0; pad <= 10; pad++ {
				line = append(append(append(line[:0], "[[1,1,1,1],"...), tuple...), ']')
				line = append(line, "          "[:max(pad-1, 0)]...)
				for _, raw := range [][]byte{line, line[:len(line)-pad]} {
					for _, lens := range scanLens {
						scanAgrees(t, raw, lens[0], lens[1], &got, &want)
					}
				}
			}
		}
	}
}
