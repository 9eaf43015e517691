package analysis

import (
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
