package analysis

import (
	"encoding/binary"
	"math"
	"math/big"
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

// FuzzSaturatingOps pins the production saturating primitives (one widening
// multiply / one add with carry, no divide, no zero branch) to the
// divide-based oracle of reference_test.go and to math/big, on every ordered
// pair of the five operands, and then the composed chained-blocking hop step
//
//	sat(sat((c-1) * sat(H + sat(L*iv))) + R)
//
// the way the walk and the kernels apply it (regularWait). c = 0 wraps c-1 to
// MaxUint64 on all three sides alike. The committed corpus
// (testdata/fuzz/FuzzSaturatingOps) holds the edges: 0, 1, 2^32±1 (whose
// product is exactly MaxUint64), 2^32 squared and 2*2^63 (one past it), 2^63,
// MaxUint64, and MaxUint64/b, MaxUint64/b+1 for b = 3 and 7 (the exact and
// the inexact quotient of the old overflow check).
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
		got := saturatingAdd(regularWait(iv, c, H, L), R)
		ref := referenceSaturatingAdd(referenceSaturatingMul(c-1, referenceSaturatingAdd(H, referenceSaturatingMul(L, iv))), R)
		exact := bigAdd(bigMul(c-1, bigAdd(H, bigMul(L, iv))), R)
		if got != ref || got != exact {
			t.Fatalf("hop step c=%d H=%d L=%d iv=%d R=%d: %d, divide-based %d, math/big %d", c, H, L, iv, R, got, ref, exact)
		}
	})
}

// FuzzRegularSegmentMap pins the chained-blocking kernel's X-segment map to
// the walk it replaces. For up to eight contender counts (eight little-endian
// bytes each; a short tail is zero-padded) and a column state (t, iv), the map
// built hop by hop with regularSegHop and closed with regularSegFinish must,
// after every hop, give through regularApply the same value as the walk's
// fold of regularWait and the interval step closed by regularFinish, and as
// the exact math/big value clamped to MaxUint64. c = 0 and S = 0 wrap c-1 and
// S-1 to MaxUint64 on all three sides alike. The committed corpus
// (testdata/fuzz/FuzzRegularSegmentMap) holds the saturating edges: a
// saturated column total, iv = MaxUint64 against c = 1 (B stays 0, and
// sat(MaxUint64*0) = 0), counts whose product is exactly MaxUint64 or one
// past it, an interval P that saturates under L = 0, A and B sums whose
// terms fit but whose total passes 2^64, L*iv = 2^64, a total one short of
// MaxUint64, c = 0 with S = 0, and no hop at all. A wrapping + in either sum
// of regularSegHop or in regularApply, a wrapping * of its interval, or a
// finish without (S-1)*P fails on one of them.
func FuzzRegularSegmentMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, counts []byte, t0, iv, S, L, H, R uint64) {
		var cs []uint64
		for len(counts) > 0 && len(cs) < 8 {
			var w [8]byte
			counts = counts[copy(w[:], counts):]
			cs = append(cs, binary.LittleEndian.Uint64(w[:]))
		}
		big64 := func(v uint64) *big.Int { return new(big.Int).SetUint64(v) }
		a, b, p := uint64(0), uint64(0), uint64(1)
		wt, wiv := t0, iv
		et, eiv := big64(t0), big64(iv)
		for i := 0; ; i++ {
			A, B := regularSegFinish(a, b, p, S)
			got, walk := regularApply(t0, iv, A, B), regularFinish(wt, wiv, S)
			fin := new(big.Int).Mul(big64(S-1), eiv)
			exact := bigClamp(fin.Add(fin, et).Add(fin, big64(1)))
			if got != walk || got != exact {
				t.Fatalf("counts %v (first %d) t=%d iv=%d S=%d L=%d H=%d R=%d: map %d, walk %d, math/big %d",
					cs, i, t0, iv, S, L, H, R, got, walk, exact)
			}
			if i == len(cs) {
				return
			}
			c := cs[i]
			a, b, p = regularSegHop(a, b, p, c, H, L, R)
			wt, wiv = saturatingAdd(wt, saturatingAdd(regularWait(wiv, c, H, L), R)), saturatingMul(c, wiv)
			wait := new(big.Int).Mul(big64(L), eiv)
			wait.Add(wait, big64(H)).Mul(wait, big64(c-1))
			et.Add(et, wait).Add(et, big64(R))
			eiv.Mul(eiv, big64(c))
		}
	})
}
