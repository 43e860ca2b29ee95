package geom

import "math"

// minNormal is the smallest positive normal float64, 2⁻¹⁰²².
const minNormal = 0x1p-1022

// WholeExponent returns y as an int when it is a whole number in
// [1, 64], the exponents PowInt computes itself, and 0 otherwise.
func WholeExponent(y float64) int {
	if !(y >= 1 && y <= 64) {
		return 0
	}
	if n := int(y); float64(n) == y {
		return n
	}
	return 0
}

// Pow returns math.Pow(x, y) bit for bit: through PowInt when y is a
// whole exponent (WholeExponent), through math.Pow otherwise.
func Pow(x, y float64) float64 {
	if n := WholeExponent(y); n > 0 {
		return PowInt(x, n)
	}
	return math.Pow(x, y)
}

// PowInt returns math.Pow(x, float64(n)) bit for bit, for n in [1, 64],
// at the cost of a few multiplications.
//
// For a whole exponent math.Pow splits x into a mantissa in [½, 1) and a
// power of two, multiplies the mantissa's successive squares into the
// result from the exponent's lowest bit up, and applies the accumulated
// power of two at the end. PowInt makes the same multiplications in the
// same order on x itself. Scaling by a power of two commutes with
// rounding as long as every value stays normal, and every intermediate
// here lies between x and the result in magnitude (all factors are on
// the same side of 1), so when x and the result are normal the two
// computations round identically. Otherwise — zero, subnormal, infinite
// or NaN x, a result that overflows or leaves the normal range, or n
// outside [1, 64] — PowInt returns math.Pow's own value.
//
// math.Pow is Go code on every GOARCH except s390x, which has an
// assembly implementation; there the agreement is not guaranteed.
func PowInt(x float64, n int) float64 {
	if n < 1 || n > 64 || !(math.Abs(x) >= minNormal && math.Abs(x) <= math.MaxFloat64) {
		return math.Pow(x, float64(n))
	}
	r, sq := 1.0, x
	for i := n; ; {
		if i&1 == 1 {
			r *= sq
		}
		i >>= 1
		if i == 0 {
			break
		}
		sq *= sq
	}
	if a := math.Abs(r); !(a >= minNormal && a <= math.MaxFloat64) {
		return math.Pow(x, float64(n))
	}
	return r
}
