package geom

import (
	"math"
	"math/rand"
	"testing"
)

// requirePowInt fails unless PowInt(x, n) has math.Pow's exact bits.
func requirePowInt(t *testing.T, x float64, n int) {
	t.Helper()
	got, want := PowInt(x, n), math.Pow(x, float64(n))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PowInt(%v [%#016x], %d) = %v [%#016x], math.Pow gives %v [%#016x]",
			x, math.Float64bits(x), n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// powEdges are the inputs at the ends of PowInt's fast path: zeros,
// one, powers of two, the normal/subnormal boundary, subnormals, values
// near overflow, infinities and NaN.
var powEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 0.5, 0x1p-1, 0x1p10, 0x1p-10,
	0x1p511, 0x1p512, 0x1p-511, 0x1p-512, 0x1p1023, 0x1p-1022,
	math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1022, 1), 0x1p-1060, math.SmallestNonzeroFloat64,
	math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), -math.MaxFloat64,
	math.Sqrt(math.MaxFloat64), math.Cbrt(math.MaxFloat64), math.Nextafter(math.Cbrt(math.MaxFloat64), math.Inf(1)),
	math.Inf(1), math.Inf(-1), math.NaN(), 3, 10, 1e-3, -2.5,
}

// TestPowIntMatchesMathPow pins PowInt bit for bit against math.Pow:
// random x over the whole float64 exponent range (both signs) and the
// edge inputs, at every exponent 1..16, then the edges up to 64 and the
// out-of-range exponents that fall back.
func TestPowIntMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for i := 0; i < 20000; i++ {
		x := math.Ldexp(1+rng.Float64(), rng.Intn(2100)-1075)
		if rng.Intn(4) == 0 {
			x = -x
		}
		for n := 1; n <= 16; n++ {
			requirePowInt(t, x, n)
		}
	}
	for _, x := range powEdges {
		for n := -2; n <= 66; n++ {
			requirePowInt(t, x, n)
		}
	}
}

// TestPowAndWholeExponent pins the exponent dispatch: whole y in
// [1, 64] go through PowInt, everything else through math.Pow, and both
// give math.Pow's bits.
func TestPowAndWholeExponent(t *testing.T) {
	for y, want := range map[float64]int{
		1: 1, 3: 3, 64: 64, 2.5: 0, 0: 0, 65: 0, -3: 0, 0.5: 0,
		math.NaN(): 0, math.Inf(1): 0, 1e300: 0, math.Nextafter(3, 4): 0,
	} {
		if got := WholeExponent(y); got != want {
			t.Errorf("WholeExponent(%v) = %d, want %d", y, got, want)
		}
	}
	for _, y := range []float64{1, 1.5, 2, 2.2, 3, 4, 6, 0.5, -3, 64, 65} {
		for _, x := range []float64{0, 0.3, 1, 7.25, 1e5, 0x1p-1050, math.Inf(1)} {
			if got, want := Pow(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Pow(%v, %v) = %v, math.Pow gives %v", x, y, got, want)
			}
		}
	}
}

// FuzzPowInt checks PowInt against math.Pow bit for bit at any x and
// any exponent in [1, 64]; its seed corpus runs under go test.
func FuzzPowInt(f *testing.F) {
	for i, x := range powEdges {
		f.Add(x, 1+i%16)
	}
	f.Add(1.0000001, 64)
	f.Add(0.9999999, 63)
	f.Add(1.5, 37)
	f.Fuzz(func(t *testing.T, x float64, n int) {
		n = 1 + int(uint(n)%64)
		requirePowInt(t, x, n)
	})
}
