package serve

import (
	"bytes"
	"math"
)

// The flat request shape. The query verbs — wctt, wcet, ping, batch,
// wcet-batch — are asked in one spelling by every caller that renders its own
// lines: a flat object of integers, short names, {"x":..,"y":..} coordinates
// and, on the two vector verbs, a queries array of integer tuples.
// flatDecoder reads exactly that shape without reflection or allocation and
// declines everything else, which then takes encoding/json: what it accepts
// is a strict subset of what json.Unmarshal accepts, decoded to the same
// Request (FuzzFlatDecodeMatchesJSON is the proof). It declines rather than
// interprets wherever encoding/json has a rule of its own: unknown keys
// (ignored there), differently-cased keys (matched there), duplicate keys
// (last wins there), null, floats and exponents, leading zeros, -0 and
// integers past 18 digits outside queries, string escapes, control and
// non-ASCII bytes, an empty coordinate object, trailing bytes. Inside queries
// the grammar is parseTuples': a line is scanned here, once, and the scan
// keeps every tuple it converts in a pooled tupleList that travels with the
// Request, so the verb reads the tuples without parsing the array again.

// flatDecoder holds one connection's decode target, reused line after line:
// the Request a decoded line points into is valid until the next decode.
type flatDecoder struct {
	req            Request
	src, dst, core Coord
	// strs remembers the connection's last few string values (verb, design,
	// topology, workload names), so a repeated name costs a compare instead
	// of an allocation.
	strs [8]string
	next int
	// queriesAt is the offset in the decoded line of req.Queries, which
	// aliases the line.
	queriesAt int
	// tl receives the tuples of the next queries array scanned; handOff
	// passes it on with the Request that owns them.
	tl *tupleList
}

// maxInternLen bounds the strings flatDecoder.intern retains.
const maxInternLen = 32

// flatField places one key of a flat object: kind 'n' stores an integer in
// nums[slot], 's' a string in strs[slot], 'c' a coordinate object in
// xy[slot], 'q' a queries array as its start and end in
// nums[slot:slot+2] and its tuples in the tupleList.
type flatField struct {
	key  string
	kind byte
	slot int
}

// requestFields is the flat request shape; spec is not in it. The coordinate
// fields lead, so that their bit in the seen set is 1<<slot, and queries
// follows them.
var requestFields = []flatField{
	{"src", 'c', 0}, {"dst", 'c', 1}, {"core", 'c', 2}, {"queries", 'q', 6},
	{"id", 'n', 0}, {"op", 's', 0}, {"design", 's', 1}, {"width", 'n', 1}, {"height", 'n', 2},
	{"payload_bits", 'n', 3}, {"topology", 's', 2}, {"workload", 's', 3},
	{"max_packet_flits", 'n', 4}, {"timeout_ms", 'n', 5},
}

// vectorOp reports whether op is one of the two verbs that take a queries
// array. They run on the pool however their line was decoded.
func vectorOp(op string) bool { return op == "batch" || op == "wcet-batch" }

var coordFields = []flatField{{"x", 'n', 0}, {"y", 'n', 1}}

// decode reads raw into the decoder's Request; ok is false when the line is
// not a flat request of a query verb.
func (d *flatDecoder) decode(raw []byte) (req *Request, ok bool) {
	var nums [8]int64
	var strs [4][]byte
	var xy [3][2]int64
	if d.tl == nil {
		d.tl = tupleLists.Get().(*tupleList)
	}
	seen, i, ok := flatObject(raw, skipSpace(raw, 0), requestFields, nums[:], strs[:], xy[:], d.tl)
	if !ok || skipSpace(raw, i) != len(raw) {
		return nil, false
	}
	switch string(strs[0]) {
	case "wctt", "wcet", "ping":
		if seen&(1<<3) != 0 {
			return nil, false
		}
	case "batch", "wcet-batch":
	default:
		return nil, false
	}
	// Request's int fields are machine words.
	for _, v := range [...]int64{nums[1], nums[2], nums[3], nums[4], xy[0][0], xy[0][1], xy[1][0], xy[1][1], xy[2][0], xy[2][1]} {
		if int64(int(v)) != v {
			return nil, false
		}
	}
	d.req = Request{ID: nums[0], Width: int(nums[1]), Height: int(nums[2]), PayloadBits: int(nums[3]),
		MaxPacketFlits: int(nums[4]), TimeoutMS: nums[5], Op: d.intern(strs[0]),
		Design: d.intern(strs[1]), Topology: d.intern(strs[2]), Workload: d.intern(strs[3])}
	d.src, d.dst, d.core = Coord{int(xy[0][0]), int(xy[0][1])}, Coord{int(xy[1][0]), int(xy[1][1])}, Coord{int(xy[2][0]), int(xy[2][1])}
	if seen&(1<<0) != 0 {
		d.req.Src = &d.src
	}
	if seen&(1<<1) != 0 {
		d.req.Dst = &d.dst
	}
	if seen&(1<<2) != 0 {
		d.req.Core = &d.core
	}
	if seen&(1<<3) != 0 {
		d.req.Queries = raw[nums[6]:nums[7]]
	}
	d.queriesAt = int(nums[6])
	return &d.req, true
}

// handOff returns a copy of the Request just decoded from raw that a pool
// worker may keep while the decoder reads on: the coordinates are its own and
// queries is the same span of line, the caller's copy of raw. The tupleList
// returned holds the tuples of queries (nil without them), and the worker
// releases it.
func (d *flatDecoder) handOff(line []byte) (*Request, *tupleList) {
	req := d.req
	for _, c := range []**Coord{&req.Src, &req.Dst, &req.Core} {
		if *c != nil {
			own := **c
			*c = &own
		}
	}
	if req.Queries == nil {
		return &req, nil
	}
	req.Queries = line[d.queriesAt:][:len(req.Queries)]
	tl := d.tl
	d.tl = nil
	return &req, tl
}

// flatObject reads the JSON object at raw[i] whose members all come from
// fields, each at most once, into the slot arrays (see flatField) and the
// tuples of a queries array into tl. It returns the set of fields seen, by
// position, and the offset past the closing brace.
func flatObject(raw []byte, i int, fields []flatField, nums []int64, strs [][]byte, xy [][2]int64, tl *tupleList) (seen uint, next int, ok bool) {
	if i >= len(raw) || raw[i] != '{' {
		return 0, 0, false
	}
	i = skipSpace(raw, i+1)
	for done := false; !done; {
		key, at, ok := flatKey(raw, i)
		f := 0
		for f < len(fields) && fields[f].key != string(key) {
			f++
		}
		if !ok || f == len(fields) || seen&(1<<f) != 0 {
			return 0, 0, false
		}
		seen |= 1 << f
		switch slot := fields[f].slot; fields[f].kind {
		case 'n':
			nums[slot], i, ok = flatInt(raw, at)
		case 's':
			strs[slot], i, ok = flatString(raw, at)
		case 'c':
			_, i, ok = flatObject(raw, at, coordFields, xy[slot][:], nil, nil, nil)
		case 'q':
			var err error
			i, err = scanTuples(raw, at, 0, math.MaxInt, tl)
			tl.complete = err == nil
			nums[slot], nums[slot+1], ok = int64(at), int64(i), err == nil
		}
		if !ok {
			return 0, 0, false
		}
		if i, done, ok = flatNext(raw, i); !ok {
			return 0, 0, false
		}
	}
	return seen, i, true
}

// intern returns b as a string, reusing the connection's copy when b
// repeats one of its recent values.
func (d *flatDecoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	for _, s := range d.strs {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if len(s) <= maxInternLen {
		d.strs[d.next] = s
		d.next = (d.next + 1) % len(d.strs)
	}
	return s
}

// flatKey reads an object member's `"key" :` at raw[i] and returns the key
// and the offset of the member's value.
func flatKey(raw []byte, i int) (key []byte, at int, ok bool) {
	key, i, ok = flatString(raw, i)
	if i = skipSpace(raw, i); !ok || i >= len(raw) || raw[i] != ':' {
		return nil, 0, false
	}
	return key, skipSpace(raw, i+1), true
}

// flatNext reads what follows an object member's value at raw[i]: a comma
// (next is the offset of the following key) or the closing brace (done, and
// next is the offset just past it).
func flatNext(raw []byte, i int) (next int, done, ok bool) {
	i = skipSpace(raw, i)
	if i >= len(raw) {
		return 0, false, false
	}
	switch raw[i] {
	case ',':
		return skipSpace(raw, i+1), false, true
	case '}':
		return i + 1, true, true
	}
	return 0, false, false
}

// flatString reads a double-quoted string of printable ASCII without
// escapes at raw[i] and returns its bytes and the offset past the closing
// quote.
func flatString(raw []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(raw) || raw[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(raw); j++ {
		switch c := raw[j]; {
		case c == '"':
			return raw[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// flatInt reads a JSON integer of at most 18 digits at raw[i]: no leading
// zero, no -0, no fraction or exponent (the caller finds those bytes where a
// separator must be and declines).
func flatInt(raw []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(raw) && raw[i] == '-'
	if neg {
		i++
	}
	if v, next = shortInt(raw, i); next == i || neg && v == 0 {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, next, true
}

// lineID recovers the id of a line that is being turned away undecoded, so
// a rejection costs a byte search, not a parse of the whole line (batch
// lines run to megabytes). It reads the id only where it is the line's first
// member and a flat integer, and only if nothing after it could be a second
// id to encoding/json, which matches keys case-insensitively, after
// unescaping, and lets the last one win: no `"id"` in any case and no
// backslash in the rest of the line. Otherwise ok is false and the caller
// asks encoding/json.
func lineID(raw []byte) (id int64, ok bool) {
	i := skipSpace(raw, 0)
	if i >= len(raw) || raw[i] != '{' {
		return 0, false
	}
	key, at, ok := flatKey(raw, skipSpace(raw, i+1))
	if !ok || string(key) != "id" {
		return 0, false
	}
	id, i, ok = flatInt(raw, at)
	if !ok {
		return 0, false
	}
	if i, _, ok = flatNext(raw, i); !ok || bytes.IndexByte(raw[i:], '\\') >= 0 {
		return 0, false
	}
	for rest := raw[i:]; ; {
		q := bytes.IndexByte(rest, '"')
		if q < 0 {
			return id, true
		}
		if rest = rest[q+1:]; len(rest) >= 3 && rest[0]|0x20 == 'i' && rest[1]|0x20 == 'd' && rest[2] == '"' {
			return 0, false
		}
	}
}
