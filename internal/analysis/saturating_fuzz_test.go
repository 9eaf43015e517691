package analysis

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"testing"
)

// bigClamp is the third opinion on a saturating operation: the exact result
// in math/big, clamped to MaxUint64.
func bigClamp(x *big.Int) uint64 {
	if x.IsUint64() {
		return x.Uint64()
	}
	return math.MaxUint64
}

func bigMul(a, b uint64) uint64 {
	return bigClamp(new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)))
}

func bigAdd(a, b uint64) uint64 {
	return bigClamp(new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)))
}

// big128 is the 128-bit integer hi·2^64 + lo.
func big128(hi, lo uint64) *big.Int {
	x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
	return x.Or(x, new(big.Int).SetUint64(lo))
}

// FuzzSaturatingOps pins the production saturating primitives (one widening
// multiply / one add with carry, no divide, no zero branch) to the
// divide-based oracle of reference_test.go and to math/big, on every ordered
// pair of the five operands, and then one chained-blocking hop: its segment
// map (segFold.hop) applied to the state (0, iv),
//
//	sat(sat(sat((c-1)*H) + R) + sat(sat((c-1)*L) * iv))
//
// against the recursion's grouping (c-1)*(H + L*iv) + R in the divide-based
// oracle and in math/big. c = 0 wraps c-1 to MaxUint64 on all three sides
// alike. The committed corpus
// (testdata/fuzz/FuzzSaturatingOps) holds the edges: 0, 1, 2^32±1 (whose
// product is exactly MaxUint64), 2^32 squared and 2*2^63 (one past it), 2^63,
// MaxUint64, and MaxUint64/b, MaxUint64/b+1 for b = 3 and 7 (the exact and
// the inexact quotient of the old overflow check).
//
// The same operands also drive the WaW summary's 128-bit arithmetic
// (tableii.go). addCrossings(c, H, L, iv, R), the total (c, H) plus the cost L
// times iv·R pairs, must equal math/big wherever its precondition holds
// (iv·R < 2^64 and a result below 2^128), and exactMean(c, H, L), the total
// (c, H) over the count L > 0, must equal big.Rat's correctly rounded
// quotient. Seeds for them: a carry out of lo, totals of 2^53 (the last the
// float quotient takes) and 2^53+1 (the first past it), a count of 2^53+1
// (no float64), and a sum that ends one short of 2^128.
func FuzzSaturatingOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, c, H, L, iv, R uint64) {
		ops := [...]uint64{c, H, L, iv, R}
		for _, a := range ops {
			for _, b := range ops {
				if got, ref, exact := saturatingMul(a, b), referenceSaturatingMul(a, b), bigMul(a, b); got != ref || got != exact {
					t.Fatalf("saturatingMul(%d, %d) = %d, divide-based %d, math/big %d", a, b, got, ref, exact)
				}
				if got, ref, exact := saturatingAdd(a, b), referenceSaturatingAdd(a, b), bigAdd(a, b); got != ref || got != exact {
					t.Fatalf("saturatingAdd(%d, %d) = %d, divide-based %d, math/big %d", a, b, got, ref, exact)
				}
			}
		}
		fd := segFold{h: H, l: L, r: R}
		hop := fd.hop(c)
		got := saturatingAdd(hop.a, saturatingMul(hop.b, iv))
		ref := referenceSaturatingAdd(referenceSaturatingMul(c-1, referenceSaturatingAdd(H, referenceSaturatingMul(L, iv))), R)
		exact := bigAdd(bigMul(c-1, bigAdd(H, bigMul(L, iv))), R)
		if got != ref || got != exact {
			t.Fatalf("hop step c=%d H=%d L=%d iv=%d R=%d: %d, divide-based %d, math/big %d", c, H, L, iv, R, got, ref, exact)
		}
		if pairsHi, pairs := bits.Mul64(iv, R); pairsHi == 0 {
			exact := new(big.Int).Mul(new(big.Int).SetUint64(L), new(big.Int).SetUint64(pairs))
			exact.Add(exact, big128(c, H))
			if exact.BitLen() <= 128 {
				if hi, lo := addCrossings(c, H, L, iv, R); big128(hi, lo).Cmp(exact) != 0 {
					t.Fatalf("addCrossings(%d, %d, %d, %d, %d) = (%d, %d), math/big %v", c, H, L, iv, R, hi, lo, exact)
				}
			}
		}
		if L > 0 {
			want, _ := new(big.Rat).SetFrac(big128(c, H), new(big.Int).SetUint64(L)).Float64()
			if got := exactMean(c, H, L); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("exactMean(%d, %d, %d) = %v (%#x), big.Rat %v (%#x)", c, H, L, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// FuzzRegularSegmentMap pins the segment maps of both bound families
// (segMap, wctt.go) to the route walk's fold and to math/big. The inputs are
// up to eight plane entries (eight little-endian bytes each; a short tail is
// zero-padded), a state (t, iv), a size S, the constants L, H and R, and a
// split point.
//
// The chained-blocking map reads the entries as contender counts with the
// hop constants (H, L, R) and S flits. Folded hop by hop from the
// destination, it must after every hop finish to the walk's fold of the same
// hops from the ejection port's state (0, 1) — written in the divide-based
// primitives of reference_test.go — and to the exact math/big value clamped
// to MaxUint64, and take the state (t, iv) through close and regularApply to
// the walk's fold from (t, iv) in the same way. The guaranteed-bandwidth map
// reads the entries as output shares, H as the slot and S as the packet
// count, and its finish must match the walk's (sum, max) fold. Then, for
// both, the hops split at the split point into the run nearest the
// destination, folded from its destination end, and the rest, folded from
// its source end: the two runs composed with then, the rest extended hop by
// hop at its destination end by the first run's hops, and the first run
// extended at its source end by the rest's hops must all give the same value.
//
// c = 0 and S = 0 wrap c-1 and S-1 to MaxUint64 on every side alike. The
// committed corpus (testdata/fuzz/FuzzRegularSegmentMap) holds the
// saturating edges: a saturated column total, iv = MaxUint64 against c = 1
// (b stays 0, and sat(MaxUint64*0) = 0), counts whose product is exactly
// MaxUint64 or one past it, an interval p that saturates under L = 0, a and
// b sums whose terms fit but whose total passes 2^64, L*iv = 2^64, a b*p term
// of a composition that is exactly 2^64, slot waits whose sum passes 2^64, a
// finishing term p*nk of exactly 2^64 in either family, a total one short of
// MaxUint64, c = 0 with S = 0, and no hop at all. A wrapping + or * anywhere
// in hop, then, close, finish or regularApply, or a close or finish without
// (S-1)*p fails on one of them.
func FuzzRegularSegmentMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, counts []byte, t0, iv, S, L, H, R uint64, split uint8) {
		var cs []uint64
		for len(counts) > 0 && len(cs) < 8 {
			var w [8]byte
			counts = counts[copy(w[:], counts):]
			cs = append(cs, binary.LittleEndian.Uint64(w[:]))
		}
		big64 := func(v uint64) *big.Int { return new(big.Int).SetUint64(v) }
		add, mul := referenceSaturatingAdd, referenceSaturatingMul
		for _, waw := range []bool{false, true} {
			fd := segFold{h: H, l: L, r: R, nk: S - 1, waw: waw}
			if waw {
				fd.l, fd.nk = 0, saturatingMul(S-1, H)
			}
			// walk is the bound over hops from the state (t, iv): the walk's
			// fold in the divide-based primitives, and the exact value.
			walk := func(hops []uint64, t0, iv uint64) (uint64, uint64) {
				if waw {
					total, share, et, esh := uint64(0), uint64(1), big64(0), uint64(1)
					for _, o := range hops {
						total, share = add(total, add(mul(o-1, H), R)), max(share, o)
						et.Add(et, new(big.Int).Mul(big64(o-1), big64(H))).Add(et, big64(R))
						esh = max(esh, o)
					}
					fin := new(big.Int).Mul(big64(S-1), big64(esh))
					fin.Mul(fin, big64(H)).Add(fin, et).Add(fin, big64(1))
					return add(add(total, mul(S-1, mul(share, H))), 1), bigClamp(fin)
				}
				wt, wiv, et, eiv := t0, iv, big64(t0), big64(iv)
				for _, c := range hops {
					wt, wiv = add(wt, add(mul(c-1, add(H, mul(L, wiv))), R)), mul(c, wiv)
					wait := new(big.Int).Mul(big64(L), eiv)
					wait.Add(wait, big64(H)).Mul(wait, big64(c-1))
					et.Add(et, wait).Add(et, big64(R))
					eiv.Mul(eiv, big64(c))
				}
				fin := new(big.Int).Mul(big64(S-1), eiv)
				return add(add(wt, mul(S-1, wiv)), 1), bigClamp(fin.Add(fin, et).Add(fin, big64(1)))
			}
			// The finish starts from the ejection port's state (0, 1); a
			// chained-blocking map is also closed and applied to (t, iv).
			check := func(what string, s segMap, hops []uint64) {
				t.Helper()
				A, B := fd.close(s)
				for _, c := range []struct {
					name      string
					got, t, v uint64
				}{{"finish", fd.finish(s), 0, 1}, {"closed", regularApply(t0, iv, A, B), t0, iv}} {
					if waw && c.name == "closed" {
						continue
					}
					if ref, exact := walk(hops, c.t, c.v); c.got != ref || c.got != exact {
						t.Fatalf("waw %v, %s, %s, hops %v of %v, t=%d iv=%d S=%d L=%d H=%d R=%d: map %d, walk %d, math/big %d",
							waw, what, c.name, hops, cs, c.t, c.v, S, L, H, R, c.got, ref, exact)
					}
				}
			}
			then := fd.then()
			s := segMap{p: 1}
			for i := 0; ; i++ {
				check("hop by hop", s, cs[:i])
				if i == len(cs) {
					break
				}
				s = then(s, fd.hop(cs[i]))
			}
			// The walk carries the ejection port's state hop by hop instead
			// (segFold.run), and a source-keyed sweep finishes a route from
			// its ejection hop and the map of the rest (segFold.eject).
			st, siv := fd.run(0, 1, cs, 0, 1, len(cs))
			ref, exact := walk(cs, 0, 1)
			if got := fd.finish(segMap{a: st, p: siv}); got != ref || got != exact {
				t.Fatalf("waw %v, state carried hop by hop, hops %v, S=%d L=%d H=%d R=%d: %d, walk %d, math/big %d", waw, cs, S, L, H, R, got, ref, exact)
			}
			if len(cs) > 0 {
				up := segMap{p: 1}
				for _, c := range cs[1:] {
					up = then(up, fd.hop(c))
				}
				if got := fd.eject()(up, cs[0]); got != ref || got != exact {
					t.Fatalf("waw %v, ejected, hops %v, S=%d L=%d H=%d R=%d: %d, walk %d, math/big %d", waw, cs, S, L, H, R, got, ref, exact)
				}
			}
			k := int(split) % (len(cs) + 1)
			near, rest := segMap{p: 1}, segMap{p: 1}
			for _, c := range cs[:k] {
				near = then(near, fd.hop(c))
			}
			for i := len(cs) - 1; i >= k; i-- {
				rest = then(fd.hop(cs[i]), rest)
			}
			check(fmt.Sprintf("runs split at %d, composed", k), then(near, rest), cs)
			for i := k - 1; i >= 0; i-- {
				rest = then(fd.hop(cs[i]), rest)
			}
			check(fmt.Sprintf("runs split at %d, rest extended at its destination end", k), rest, cs)
			for _, c := range cs[k:] {
				near = then(near, fd.hop(c))
			}
			check(fmt.Sprintf("runs split at %d, first run extended at its source end", k), near, cs)
		}
	})
}
