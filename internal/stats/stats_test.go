package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatalf("zero-value summary not empty: %v", s.String())
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almostEq(s.Var(), 32.0/7, 1e-12) {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// The input must not be reordered.
	if xs[0] != 5 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		got := Quantile(xs, q)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMax(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
	if got := Mean([]float64{1, 2, 3}); !almostEq(got, 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Max([]float64{1, 7, 3}); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
}

func TestSummaryWelfordAgainstNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.Abs(x) < 1e6 && !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Summary
		for _, x := range xs {
			s.Add(x)
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naive))
		return almostEq(s.Var(), naive, 1e-6*scale) && almostEq(s.Mean(), mean, 1e-6*math.Max(1, math.Abs(mean)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDriftEstimator(t *testing.T) {
	d := NewDriftEstimator(0, 5)
	// Feed a mean-reverting walk: above 0, drift is -1; at 0, +2.
	seq := []float64{0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	for _, phi := range seq {
		d.Observe(phi)
	}
	if !d.NegativeAboveZero(1) {
		t.Errorf("mean-reverting walk judged drifting: %s", d.String())
	}
	// The Φ=0 bucket should show positive drift (arrivals).
	mean, n := d.Drift(0)
	if n == 0 || mean <= 0 {
		t.Errorf("Φ=0 bucket drift = %v (n=%d), want positive", mean, n)
	}
	// A runaway walk fails the check.
	up := NewDriftEstimator(0)
	for phi := 0.0; phi < 20; phi++ {
		up.Observe(phi)
	}
	if up.NegativeAboveZero(1) {
		t.Errorf("runaway walk judged stable: %s", up.String())
	}
	if up.NumBuckets() != 2 {
		t.Errorf("buckets = %d, want 2", up.NumBuckets())
	}
	// Degenerate queries return zero.
	if m, n := d.Drift(99); m != 0 || n != 0 {
		t.Error("out-of-range bucket not zero")
	}
}

func TestAccessorsAndStringers(t *testing.T) {
	var s Summary
	s.Add(3)
	s.Add(5)
	if s.Std() <= 0 {
		t.Error("Std not positive for varied data")
	}
	if str := s.String(); str == "" || !almostEq(s.Mean(), 4, 1e-12) {
		t.Errorf("String/Mean wrong: %q", str)
	}
	h := NewHistogram(1, 4)
	if h.Mean() != 0 {
		t.Error("empty histogram mean not 0")
	}
	h.Add(2)
	if h.String() == "" {
		t.Error("histogram String empty")
	}
	var series Series
	series.Append(0, 3)
	series.Append(1, 9)
	if series.MaxV() != 9 {
		t.Errorf("MaxV = %v", series.MaxV())
	}
	d := NewDriftEstimator(0)
	d.Observe(1)
	d.Observe(0)
	if d.String() == "" {
		t.Error("drift String empty")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = errors.New("sink closed")

func TestWriteCSVPropagatesErrors(t *testing.T) {
	var s Series
	s.Append(1, 2)
	if err := s.WriteCSV(failWriter{}, "t", "v"); err == nil {
		t.Fatal("write error swallowed")
	}
}
