package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},     // even the median has only 9.5 beyond it
		{20, 0.5},   // exactly 10 beyond the median
		{39, 0.5},   // p75 would have 9.75
		{40, 0.75},  // p75: 10 beyond
		{99, 0.8},   // p90 would have 9.9
		{100, 0.9},  // p90: 10 beyond
		{199, 0.9},  // p95 would have 9.95
		{200, 0.95}, // p95: 10 beyond
		{999, 0.95},
		{1000, 0.99},
		{10000, 0.999},
	}
	for _, c := range cases {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if qualifies(0.9, 99) || !qualifies(0.9, 100) {
		t.Error("p90 must qualify from exactly 100 samples")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestWindowedRateIsMedianOfWindows(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms ...int) []time.Time {
		out := make([]time.Time, len(ms))
		for i, m := range ms {
			out[i] = start.Add(time.Duration(m) * time.Millisecond)
		}
		return out
	}
	// Windows of two completions: [0,100] → 20/s, (100,200] → 20/s,
	// (200,600] → 5/s (a stall); the trailing single completion is a
	// partial window and is dropped. The total/elapsed rate would be
	// 7/0.7 = 10/s; the median ignores the stall.
	done := at(50, 100, 150, 200, 400, 600, 700)
	if got := windowedRate(start, done, 2); math.Abs(got-20) > 1e-9 {
		t.Errorf("windowedRate = %v, want 20", got)
	}
	// One completion per window: rates 1/0.1, 1/0.2, 1/0.3.
	if got := windowedRate(start, at(100, 300, 600), 1); math.Abs(got-5) > 1e-9 {
		t.Errorf("windowedRate(k=1) = %v, want 5", got)
	}
	if !math.IsNaN(windowedRate(start, at(100), 2)) {
		t.Error("no full window must give NaN")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	base := time.Unix(0, 0)
	ms := func(m int) time.Time { return base.Add(time.Duration(m) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "submit", Start: ms(0), End: ms(10)},
		// Two overlapping children (parallel units) cover [20,60] once.
		{ID: 3, Parent: 1, Name: "unit", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "unit", Start: ms(30), End: ms(60)},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "fetch", Start: ms(90), End: ms(120)},
		{ID: 6, Parent: 3, Name: "compile", Start: ms(20), End: ms(25)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 40 * time.Millisecond, // 100 − (10 + 40 + 10)
		2: 10 * time.Millisecond,
		3: 25 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 30 * time.Millisecond,
		6: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
}
