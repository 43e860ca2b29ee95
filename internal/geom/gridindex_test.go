package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteWithin is the reference for Within: a linear scan.
func bruteWithin(pts []Point, sel []int32, p Point, r float64) []int32 {
	var out []int32
	ids := sel
	if ids == nil {
		ids = make([]int32, len(pts))
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	for _, id := range ids {
		if p.DistSq(pts[id]) <= r*r {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestGridIndexWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ring []int32 // reused across every query and index
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(400)
		side := 1 + rng.Float64()*100
		pts := Uniform(rng, n, side)
		g := NewGridIndex(pts, 0)
		for q := 0; q < 10; q++ {
			p := Point{X: (rng.Float64()*1.4 - 0.2) * side, Y: (rng.Float64()*1.4 - 0.2) * side}
			r := rng.Float64() * side / 2
			var got []int32
			got, ring = g.Within(p, r, pts, nil, ring)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := bruteWithin(pts, nil, p, r)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Within returned %d ids, brute force %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Within[%d] = %d, want %d", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGridIndexSubsetFill(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := Uniform(rng, 300, 50)
	wt := make([]float64, len(pts))
	for i := range wt {
		wt[i] = 1 + rng.Float64()
	}
	sel := make([]int32, 0, 150)
	for i := 0; i < len(pts); i += 2 {
		sel = append(sel, int32(i))
	}
	var g GridIndex
	g.Fill(pts, sel, wt, 0)
	if g.Count() != len(sel) {
		t.Fatalf("Count = %d, want %d", g.Count(), len(sel))
	}
	// Every selected id appears in exactly the cell containing it, and
	// cell weights sum to the selection's total weight.
	var totalWt float64
	for _, id := range sel {
		totalWt += wt[id]
	}
	var seen int
	var sumWt float64
	for cy := 0; cy < g.rows; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			for _, id := range g.CellIDs(cx, cy) {
				if id%2 != 0 {
					t.Fatalf("unselected id %d in index", id)
				}
				if gx, gy := g.CellAt(pts[id]); gx != cx || gy != cy {
					t.Fatalf("id %d bucketed in (%d,%d) but located in (%d,%d)", id, cx, cy, gx, gy)
				}
				seen++
			}
			sumWt += g.CellWeight(cx, cy)
		}
	}
	if seen != len(sel) {
		t.Fatalf("index holds %d ids, want %d", seen, len(sel))
	}
	if math.Abs(sumWt-totalWt) > 1e-9*totalWt {
		t.Fatalf("cell weights sum to %v, want %v", sumWt, totalWt)
	}
	// Refill with a different subset reuses buffers and stays correct.
	g.Fill(pts, sel[:10], wt, 0)
	if g.Count() != 10 {
		t.Fatalf("refill Count = %d, want 10", g.Count())
	}
	got, _ := g.Within(pts[sel[3]], 1e-9, pts, nil, nil)
	found := false
	for _, id := range got {
		if id == sel[3] {
			found = true
		}
	}
	if !found {
		t.Fatalf("refilled index lost point %d", sel[3])
	}
}

func TestGridIndexRingsPartitionAndOuterDist(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := Uniform(rng, 500, 40)
	g := NewGridIndex(pts, 0)
	p := Point{X: 13, Y: 29}
	cx, cy := g.CellAt(p)
	seen := make(map[int32]int)
	total := 0
	var ring, next []int32
	for r := 0; ; r++ {
		var cont bool
		ring, cont = g.RingCells(cx, cy, r, ring[:0])
		for _, ci := range ring {
			seen[ci]++
			total += len(g.CellIDsAt(ci))
		}
		// Every cell on ring r+1.. is at distance ≥ OuterDist(r).
		if odr, ok := g.OuterDist(p, cx, cy, r); ok {
			next, _ = g.RingCells(cx, cy, r+1, next[:0])
			for _, ci := range next {
				if d2 := g.CellMinDistSqAt(p, ci); math.Sqrt(d2) < odr-1e-9 {
					t.Fatalf("ring %d cell %d at %.4f < OuterDist %.4f",
						r+1, ci, math.Sqrt(d2), odr)
				}
			}
		}
		if !cont {
			break
		}
		if r > g.MaxRing(cx, cy)+1 {
			t.Fatalf("RingCells did not terminate by MaxRing+1 (r=%d)", r)
		}
	}
	for cell, count := range seen {
		if count != 1 {
			t.Fatalf("cell %v visited %d times", cell, count)
		}
	}
	if total != len(pts) {
		t.Fatalf("rings covered %d points, want %d", total, len(pts))
	}
}

func TestFarFieldBound(t *testing.T) {
	// The bound dominates the true contribution of any point arrangement
	// at distance ≥ minDist.
	rng := rand.New(rand.NewSource(19))
	const alpha = 3.0
	for trial := 0; trial < 100; trial++ {
		minDist := 1 + rng.Float64()*10
		var remaining, true1 float64
		for i := 0; i < 50; i++ {
			p := rng.Float64() * 5
			d := minDist * (1 + rng.Float64()*3)
			remaining += p
			true1 += p / math.Pow(d, alpha)
		}
		if b := FarFieldBound(alpha, remaining, minDist); true1 > b {
			t.Fatalf("true tail %v exceeds bound %v", true1, b)
		}
	}
	if b := FarFieldBound(3, 0, 1); b != 0 {
		t.Fatalf("zero remainder bound = %v", b)
	}
	if b := FarFieldBound(3, 1, 0); !math.IsInf(b, 1) {
		t.Fatalf("zero-distance bound = %v, want +Inf", b)
	}
}

func TestFarFieldSeriesBound(t *testing.T) {
	// α > 2 (fading): the series converges and dominates an explicit
	// ring-by-ring tail with the capped per-cell weight.
	const alpha, cap1, cell = 3.0, 2.0, 1.5
	b := FarFieldSeriesBound(alpha, cap1, cell, 4)
	if math.IsInf(b, 1) || b <= 0 {
		t.Fatalf("series bound = %v, want finite positive", b)
	}
	explicit := 0.0
	for rho := 4; rho < 10_000; rho++ {
		explicit += 8 * float64(rho) * cap1 / math.Pow(float64(rho-1)*cell, alpha)
	}
	if explicit > b {
		t.Fatalf("explicit tail %v exceeds series bound %v", explicit, b)
	}
	// Starting further out shrinks the tail.
	if b8 := FarFieldSeriesBound(alpha, cap1, cell, 8); b8 >= b {
		t.Fatalf("bound from ring 8 (%v) not below bound from ring 4 (%v)", b8, b)
	}
	// α ≤ 2: no fading, the far field cannot be truncated.
	if b2 := FarFieldSeriesBound(2, cap1, cell, 4); !math.IsInf(b2, 1) {
		t.Fatalf("α=2 bound = %v, want +Inf", b2)
	}
}

func TestDoublingDimensionSampledAgreesWithExact(t *testing.T) {
	// Just above the exact threshold the sampled estimator must stay in
	// the same regime as the exhaustive one: the plane reads ≈ 2, far
	// below a star metric of the same size.
	rng := rand.New(rand.NewSource(23))
	grid := DistanceMatrix(Grid(10, 10, 1)) // 100 > doublingExactMax
	dGrid := DoublingDimension(grid)
	exactGrid := doublingExact(grid)
	if math.Abs(dGrid-exactGrid) > 1.5 {
		t.Errorf("sampled grid dimension %v far from exact %v", dGrid, exactGrid)
	}
	if dGrid < 1 || dGrid > 4.5 {
		t.Errorf("sampled 10×10 grid dimension %v, want ≈2", dGrid)
	}
	uni := DistanceMatrix(Uniform(rng, 400, 100))
	dUni := DoublingDimension(uni)
	if dUni < 1 || dUni > 5 {
		t.Errorf("sampled uniform dimension %v, want small constant", dUni)
	}
	const n = 200
	star := make([][]float64, n)
	for i := range star {
		star[i] = make([]float64, n)
		for j := range star[i] {
			if i != j {
				star[i][j] = 2
			}
		}
	}
	if dStar := DoublingDimension(star); dStar < 6 {
		t.Errorf("sampled star dimension %v, want ≥ 6 (grows with n)", dStar)
	}
	// Deterministic: same input, same estimate.
	if a, b := DoublingDimension(uni), DoublingDimension(uni); a != b {
		t.Errorf("sampled estimate not deterministic: %v vs %v", a, b)
	}
}

func TestDoublingDimensionExactPathUnchanged(t *testing.T) {
	// Pin the small-input values: the sampled refactor must not perturb
	// the exact estimator the original tests (and IsFadingMetric at
	// experiment sizes) rely on.
	for _, tc := range []struct {
		name string
		pts  []Point
		want float64
	}{
		{"line8", Line(8, 1), doublingExact(DistanceMatrix(Line(8, 1)))},
		{"grid5", Grid(5, 5, 1), doublingExact(DistanceMatrix(Grid(5, 5, 1)))},
	} {
		d := DistanceMatrix(tc.pts)
		if got := DoublingDimension(d); got != tc.want {
			t.Errorf("%s: DoublingDimension = %v, exact = %v (must be identical below threshold)", tc.name, got, tc.want)
		}
	}
}
