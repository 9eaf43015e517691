// Package serve turns the analytical models, compiled WCET engines and
// cycle-accurate simulator of this repository into a long-running NoC timing
// service: a daemon speaking a JSON-line batch protocol on stdin/stdout, TCP
// and HTTP, answering (design, mesh, src, dst, bytes) WCTT/WCET queries and
// whole scenario.Spec submissions. This inverts the uPIMulator-BookSim2
// architecture — there a main engine drives an external NoC timing service
// over a JSON line protocol; here we are the timing service.
//
// The serving concerns are the feature: queries are answered from the same
// two bounded concurrent caches the sweep path uses (models and engines, via
// the scenario layer, each with a singleflight for its concurrent first
// builds), every scenario line runs under its own deadline budget and shares
// nothing with another line, the per-connection pipeline applies
// bounded-queue backpressure, and shutdown drains in-flight batches without
// dropping responses. Identical queries return byte-identical JSON to the
// one-shot CLI, pinned by goldens.
//
// A line is decoded once and answered in one of two places, both chosen from
// what the server sees in it and never from a setting. The connection's reader
// goroutine tries the flat decoder (flat.go) on every line: the five query
// verbs in their documented spelling — ping, wctt, wcet, batch, wcet-batch —
// never reach encoding/json, which decodes, on the pool, only what the flat
// grammar declines. A flat wctt, wcet or ping line whose model or engine is
// already built is answered on the reader goroutine, straight into its
// buffered writer: the co-simulator's line costs no copy, hand-off or
// allocation (the benchmark's serve-lines latency_p50_ms,
// serve.inproc_us_per_line and serve.daemon_cpu_us_per_line measure it).
// Every other line — the vector verbs always — runs on the shared worker
// pool, which bounds concurrent model builds by Config.Workers, and is
// resolved through the connection's ordered slot queue; a batch line costs
// one copy for the pool and one scan, which converts its tuples for the verb,
// and its bounds come from one call of the model's grouped kernel sweeps
// (serve-batch throughput_per_s measures it). Both paths pass the same
// admission and drain checks and run the same Server.answer, so validation,
// deadline budget, counters and bytes cannot differ.
//
// See PROTOCOL.md at the repository root for the wire format.
package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"repro/internal/scenario"
)

// Coord is a mesh node in wire format ({"x":..,"y":..}).
type Coord struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// Request is one protocol line. Op selects the verb; the other fields are
// read by the verbs that need them (see PROTOCOL.md):
//
//	ping        liveness probe
//	wctt        one analytical WCTT bound: design, width, height, src, dst,
//	            payload_bits (0 = the platform's one-flit request payload;
//	            at most MaxPayloadBits),
//	            topology ("" = mesh, cmesh, cmesh4 or cmesh2)
//	wcet        one per-core WCET estimate: design, width, height, core,
//	            workload, max_packet_flits (0 = platform default; at most
//	            scenario.MaxPacketFlitsLimit)
//	batch       a vector of WCTT queries sharing design/mesh/payload:
//	            queries = [[sx,sy,dx,dy], [sx,sy,dx,dy,payload_bits], ...]
//	wcet-batch  a vector of WCET queries sharing design/mesh/workload:
//	            queries = [[cx,cy], ...]
//	scenario    a whole concrete scenario.Spec; the response embeds the
//	            scenario.Result JSON byte-identical to the one-shot CLI
//	stats       server counters, cache stats and the latency histogram
type Request struct {
	ID     int64  `json:"id,omitempty"`
	Op     string `json:"op"`
	Design string `json:"design,omitempty"`
	// Topology selects the network topology for the wctt and batch verbs:
	// "" or "mesh" (the default) for the paper's 2D mesh, "cmesh"/"cmesh4"
	// or "cmesh2" for the concentrated meshes. Any other name is the
	// ordinary unknown-topology error, and the wcet verbs are defined on the
	// mesh platform only.
	Topology       string          `json:"topology,omitempty"`
	Width          int             `json:"width,omitempty"`
	Height         int             `json:"height,omitempty"`
	Src            *Coord          `json:"src,omitempty"`
	Dst            *Coord          `json:"dst,omitempty"`
	PayloadBits    int             `json:"payload_bits,omitempty"`
	Core           *Coord          `json:"core,omitempty"`
	Workload       string          `json:"workload,omitempty"`
	MaxPacketFlits int             `json:"max_packet_flits,omitempty"`
	Queries        json.RawMessage `json:"queries,omitempty"`
	Spec           *scenario.Spec  `json:"spec,omitempty"`
	// TimeoutMS is the caller's deadline budget for this request in
	// milliseconds. It can only tighten the server's per-verb budget (the
	// effective deadline is the minimum of the two); 0 means the server
	// default. A request that exceeds its deadline is answered with the
	// coded "deadline" error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Responses are emitted as hand-built JSON so the hot path never pays
// reflection and the byte layout is pinned:
//
//	{"id":1,"ok":true,"cycles":123}
//	{"id":2,"ok":true,"cycles":[1,2,3]}
//	{"id":3,"ok":true,"result":{...}}   (raw scenario.Result JSON)
//	{"id":4,"ok":true,"stats":{...}}
//	{"id":5,"ok":true}
//	{"id":6,"ok":false,"error":"..."}
//	{"id":7,"ok":false,"error":"...","code":"overloaded","retryable":true}
//
// Only the serving-condition errors of the taxonomy below carry the code
// and retryable fields; every pre-existing error shape (parse errors,
// unknown ops, model rejections) is unchanged byte for byte.

// protoError is a coded protocol error: a serving condition (not a fault
// of the request itself) that clients may be able to route around. Its
// code is a stable machine-readable label and retryable tells a client
// whether resubmitting the identical request can succeed. See the error
// taxonomy appendix of PROTOCOL.md.
type protoError struct {
	msg       string
	code      string
	retryable bool
}

func (e *protoError) Error() string { return e.msg }

// The serving-condition errors. Messages and codes are wire contract,
// pinned by tests — changing them breaks deployed clients.
var (
	// errOverloaded: admission control turned the line away because the
	// server-wide in-flight budget is exhausted. Retryable after backoff.
	errOverloaded = &protoError{msg: "server overloaded", code: "overloaded", retryable: true}
	// errDraining: the server is shutting down gracefully; lines already
	// buffered are answered with this instead of being dropped silently —
	// the stdin/TCP mirror of the HTTP 503. Retryable against a replica.
	errDraining = &protoError{msg: "server draining", code: "draining", retryable: true}
)

// wireError maps context sentinels that surface from a verb into their
// coded wire form; any other error passes through unchanged.
func wireError(op string, err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		// Not retryable: an identical resubmission gets the same budget and
		// times out again. The client must raise timeout_ms instead.
		return &protoError{msg: op + ": deadline exceeded", code: "deadline", retryable: false}
	}
	if errors.Is(err, context.Canceled) {
		// Retryable: cancellation came from outside the request (the
		// caller's connection or server teardown), not from its content.
		return &protoError{msg: op + ": canceled", code: "canceled", retryable: true}
	}
	return err
}

// appendHeader starts a response object. The id field is always present —
// echoing 0 for requests that did not set one keeps the layout fixed.
func appendHeader(buf []byte, id int64, ok bool) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendInt(buf, id, 10)
	if ok {
		buf = append(buf, `,"ok":true`...)
	} else {
		buf = append(buf, `,"ok":false`...)
	}
	return buf
}

// appendError finishes an error response.
func appendError(buf []byte, id int64, err error) []byte {
	buf = appendHeader(buf, id, false)
	buf = append(buf, `,"error":`...)
	msg, marshalErr := json.Marshal(err.Error())
	if marshalErr != nil {
		msg = []byte(`"internal error"`)
	}
	buf = append(buf, msg...)
	var pe *protoError
	var le *scenario.LimitError
	if !errors.As(err, &pe) && errors.As(err, &le) {
		pe = &protoError{code: "limit"} // a request over the scenario layer's size limits
	}
	if pe != nil {
		buf = append(buf, `,"code":"`...)
		buf = append(buf, pe.code...)
		if pe.retryable {
			buf = append(buf, `","retryable":true`...)
		} else {
			buf = append(buf, `","retryable":false`...)
		}
	}
	return append(buf, '}')
}

// errorResponse builds a standalone error line.
func errorResponse(id int64, err error) []byte { return appendError(nil, id, err) }

// appendCycles finishes a single-value response.
func appendCycles(buf []byte, id int64, cycles uint64) []byte {
	buf = appendHeader(buf, id, true)
	buf = append(buf, `,"cycles":`...)
	buf = strconv.AppendUint(buf, cycles, 10)
	return append(buf, '}')
}

// digitPairs holds the two decimal digits of every number below 100.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// pow10 holds the powers of ten a uint64 can hold.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen is the number of decimal digits of v.
func decimalLen(v uint64) int {
	n := (bits.Len64(v|1)*1233)>>12 + 1 // the digits of v, or one more
	if v < pow10[n-1] && n > 1 {
		n--
	}
	return n
}

// putDecimals writes vs at b[i:] in decimal and comma-separated, the bytes
// of strconv.AppendUint per number, and returns the offset past them; b must
// have room for them. Each number is written in place, two digits at a time:
// a vector verb's response is one number per tuple, and strconv's copy
// through a scratch array was the larger part of encoding it.
func putDecimals(b []byte, i int, vs []uint64) int {
	for k, v := range vs {
		if k > 0 {
			b[i] = ','
			i++
		}
		end := i + decimalLen(v)
		i = end
		for v >= 100 {
			q := v / 100
			r := (v - q*100) * 2
			i -= 2
			b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
			v = q
		}
		if v >= 10 {
			b[i-2], b[i-1] = digitPairs[2*v], digitPairs[2*v+1]
		} else {
			b[i-1] = byte('0' + v)
		}
		i = end
	}
	return i
}

// tupleWidth is the longest tuple a verb takes (batch's
// [sx,sy,dx,dy,payload_bits]); a scan keeps the first tupleWidth elements of
// every tuple and the length of each.
const tupleWidth = 5

// tuple is one inner array of a queries array: its first min(n, tupleWidth)
// elements and its length n.
type tuple struct {
	v [tupleWidth]int64
	n int
}

// tupleList is a queries array as one scan read it, and the answers of the
// verb that reads it. The flat decoder fills one in its one scan of a line,
// and the list travels to the verb with the decoded Request, so the array is
// converted once; lines the flat decoder declines are scanned into one where
// they are answered.
type tupleList struct {
	// tuples holds the first min(n, MaxBatchTuples) tuples: a line over the
	// limit is counted but not stored.
	tuples []tuple
	// n is the number of tuples the scan read, before its error if it had
	// one; complete reports that it read the whole array and nothing
	// followed it.
	n        int
	complete bool
	// cycles is the verb's answers, one per tuple.
	cycles []uint64
}

var tupleLists = sync.Pool{New: func() any { return new(tupleList) }}

// scanQueries reads raw, a queries array and nothing else, into tl with the
// flat decoder's grammar (tuples of any length).
func (tl *tupleList) scanQueries(raw []byte) {
	next, err := scanTuples(raw, skipSpace(raw, 0), 0, math.MaxInt, tl)
	tl.complete = err == nil && checkTail(raw, next) == nil
}

// prefix is the number of leading tuples whose length lies in [minLen,
// maxLen]. When that is not all of them, or the scan stopped early, err is
// the error a verb reports for the tuple that follows: parseTuples' on the
// array itself, so its text and offset are those of the grammar.
func (tl *tupleList) prefix(raw []byte, minLen, maxLen int) (valid int, err error) {
	for valid < len(tl.tuples) && tl.tuples[valid].n >= minLen && tl.tuples[valid].n <= maxLen {
		valid++
	}
	if valid == tl.n && tl.complete {
		return valid, nil
	}
	return valid, parseTuples(raw, minLen, maxLen)
}

// parseTuples checks that raw is a JSON array of flat integer arrays —
// [[1,2,3,4],[5,6,7,8],...] — with between minLen and maxLen elements each,
// and returns the error a verb reports when it is not. The grammar accepted
// is exactly JSON restricted to arrays of arrays of integers in the int64
// range; any other byte is an error (FuzzParseTuples holds it, and the
// tuples scanTuples reads, to encoding/json).
func parseTuples(raw []byte, minLen, maxLen int) error {
	var tl tupleList
	next, err := scanTuples(raw, skipSpace(raw, 0), minLen, maxLen, &tl)
	if err != nil {
		return err
	}
	return checkTail(raw, next)
}

// The one-word tuple spelling: the eight bytes after a tuple's '[' read as
// "d,d,d,d]", four single digits and no whitespace, the spelling of every
// batch query on a mesh up to 10x10 (the paper's 8x8 included). XORed with
// word4Pattern, such a word has zero separator bytes and digit bytes of at
// most 9; adding word4Carry then sets no bit of word4Mask, and any other word
// sets one: a digit byte of 10 or more reaches bit 7 of its own byte, and a
// nonzero separator byte is itself in the mask.
const (
	word4Pattern = 0x5d302c302c302c30 // "0,0,0,0]", little-endian
	word4Carry   = 0x0076007600760076
	word4Mask    = 0xff80ff80ff80ff80
)

// word4At reports whether the tuple whose '[' is raw[i] is in the one-word
// spelling, and returns its word XORed with word4Pattern: the four elements
// are then its bytes 0, 2, 4 and 6.
func word4At(raw []byte, i int) (w uint64, ok bool) {
	if len(raw)-i < 9 {
		return 0, false
	}
	w = binary.LittleEndian.Uint64(raw[i+1:]) ^ word4Pattern
	return w, (w|(w+word4Carry))&word4Mask == 0
}

// scanTuples reads the array of integer tuples that starts at raw[i], which
// may end before raw does, into tl, and returns the offset past it. It is a
// hand-rolled scanner because this is the serving hot path: a million-query
// batch must not pay encoding/json reflection per tuple.
//
// A tuple in the one-word spelling, [d,d,d,d] (word4At), costs one 8-byte
// load and one compare, and is written straight into tl.tuples: that is 100 %
// of the serve-batch workload's tuples (8x8) and 0 % of
// BenchmarkServeLines/batch-sparse's, random 64x64 pairs whose four
// coordinates are all below 10 once in about 1 700. Every other spelling
// takes the byte-wise loop, which is the grammar: the word path accepts only
// tuples that loop reads as the same four elements, and none when four
// elements are not a legal length.
func scanTuples(raw []byte, i, minLen, maxLen int, tl *tupleList) (next int, err error) {
	tl.tuples, tl.n = tl.tuples[:0], 0
	if i >= len(raw) || raw[i] != '[' {
		return 0, fmt.Errorf("queries: expected '[' at offset %d", i)
	}
	i = skipSpace(raw, i+1)
	if i < len(raw) && raw[i] == ']' {
		return i + 1, nil // empty batch
	}
	word4 := minLen <= 4 && maxLen >= 4
	for {
		if i >= len(raw) || raw[i] != '[' {
			return 0, fmt.Errorf("queries: expected tuple '[' at offset %d", i)
		}
		if w, ok := word4At(raw, i); ok && word4 {
			if n := len(tl.tuples); tl.n < MaxBatchTuples {
				if n == cap(tl.tuples) {
					tl.tuples = slices.Grow(tl.tuples, 1)
				}
				tl.tuples = tl.tuples[:n+1]
				t := &tl.tuples[n]
				t.v = [tupleWidth]int64{int64(w & 0xff), int64(w >> 16 & 0xff), int64(w >> 32 & 0xff), int64(w >> 48 & 0xff)}
				t.n = 4
			}
			i += 9
		} else {
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
				if next < len(raw) && raw[next] == ',' { // the common separator, unspaced
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
		}
		tl.n++
		if i+1 < len(raw) && raw[i] == ',' && raw[i+1] == '[' { // likewise
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

// skipSpace advances past JSON whitespace.
func skipSpace(raw []byte, i int) int {
	for i < len(raw) {
		switch raw[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// checkTail verifies only whitespace follows the closing bracket.
func checkTail(raw []byte, i int) error {
	if i = skipSpace(raw, i); i != len(raw) {
		return fmt.Errorf("queries: trailing data at offset %d", i)
	}
	return nil
}

// shortInt reads a run of at most 18 digits with no leading zero at raw[i]:
// the common tuple element and the digits of every flat integer, small enough
// for the compiler to inline into the tuple scan. next is i when raw[i:]
// starts with anything else, which parseInt then reads or refuses.
func shortInt(raw []byte, i int) (v int64, next int) {
	j := i
	for ; j < len(raw) && raw[j]-'0' <= 9; j++ {
		v = v*10 + int64(raw[j]-'0')
	}
	if d := j - i; d == 0 || d > 18 || raw[i] == '0' && d > 1 {
		return 0, i
	}
	return v, j
}

// parseInt reads one JSON integer that fits int64: an optional minus sign,
// then 0 or a digit string without a leading zero.
func parseInt(raw []byte, i int) (int64, int, error) {
	// |MinInt64| = MaxInt64 + 1: the two limits share every digit but the
	// last, so they share the cut-off and differ in the final digit allowed.
	const cutoff = math.MaxInt64 / 10
	lastDigit := uint64(math.MaxInt64 % 10)
	neg := i < len(raw) && raw[i] == '-'
	if neg {
		i++
		lastDigit++
	}
	start := i
	var v uint64
	for ; i < len(raw) && raw[i] >= '0' && raw[i] <= '9'; i++ {
		d := uint64(raw[i] - '0')
		if v > cutoff || (v == cutoff && d > lastDigit) {
			return 0, 0, fmt.Errorf("queries: integer overflow at offset %d", start)
		}
		v = v*10 + d
	}
	if i == start {
		return 0, 0, fmt.Errorf("queries: expected integer at offset %d", i)
	}
	if raw[start] == '0' && i > start+1 {
		return 0, 0, fmt.Errorf("queries: leading zero at offset %d", start)
	}
	if neg {
		v = -v
	}
	return int64(v), i, nil
}
