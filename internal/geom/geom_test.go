package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestDistProperties(t *testing.T) {
	symmetric := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		return math.Abs(p.Dist(q)-q.Dist(p)) < 1e-9
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyBad(ax, ay, bx, by, cx, cy) {
			return true
		}
		a, b, c := Point{ax, ay}, Point{bx, by}, Point{cx, cy}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6*(1+a.Dist(b)+b.Dist(c))
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
	distSq := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		d := p.Dist(q)
		return math.Abs(d*d-p.DistSq(q)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(distSq, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.Abs(x) > 1e150 {
			return true
		}
	}
	return false
}

func TestGrid(t *testing.T) {
	pts := Grid(2, 3, 1.5)
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	if pts[0] != (Point{0, 0}) {
		t.Errorf("pts[0] = %v, want origin", pts[0])
	}
	if pts[5] != (Point{3, 1.5}) {
		t.Errorf("pts[5] = %v, want (3,1.5)", pts[5])
	}
	// Neighbouring grid points are exactly spacing apart.
	if d := pts[0].Dist(pts[1]); math.Abs(d-1.5) > 1e-12 {
		t.Errorf("grid spacing %v, want 1.5", d)
	}
}

func TestLine(t *testing.T) {
	pts := Line(4, 2)
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if p.Y != 0 || math.Abs(p.X-float64(i)*2) > 1e-12 {
			t.Errorf("pts[%d] = %v", i, p)
		}
	}
}

func TestUniformStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := Uniform(rng, 500, 10)
	for _, p := range pts {
		if p.X < 0 || p.X >= 10 || p.Y < 0 || p.Y >= 10 {
			t.Fatalf("point %v outside square", p)
		}
	}
}

func TestAddScale(t *testing.T) {
	p := Point{1, 2}.Add(Point{3, -1}).Scale(2)
	if p != (Point{8, 2}) {
		t.Errorf("got %v, want (8,2)", p)
	}
}

func TestDoublingDimension(t *testing.T) {
	// Points on a line: doubling dimension ≈ 1 (allowing greedy slack).
	line := DistanceMatrix(Line(32, 1))
	dLine := DoublingDimension(line)
	if dLine < 0.5 || dLine > 2.5 {
		t.Errorf("line doubling dimension %v, want ≈1", dLine)
	}
	// A dense grid: dimension ≈ 2 (greedy covering inflates slightly).
	grid := DistanceMatrix(Grid(6, 6, 1))
	dGrid := DoublingDimension(grid)
	if dGrid < 1.5 || dGrid > 4 {
		t.Errorf("grid doubling dimension %v, want ≈2", dGrid)
	}
	// A star metric: dimension grows with the point count, clearly above
	// the grid's.
	const n = 32
	star := make([][]float64, n)
	for i := range star {
		star[i] = make([]float64, n)
		for j := range star[i] {
			if i != j {
				star[i][j] = 2 // w_i = w_j = 1
			}
		}
	}
	dStar := DoublingDimension(star)
	if dStar < 4 { // covering a ball of radius 2 needs ~n balls of radius 1
		t.Errorf("star doubling dimension %v, want ≥ log2(%d) = 5", dStar, n)
	}
	// Degenerate inputs.
	if d := DoublingDimension(nil); d != 0 {
		t.Errorf("empty metric dimension %v", d)
	}
}
