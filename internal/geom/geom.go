// Package geom provides the two-dimensional Euclidean substrate the SINR
// model lives in: points, distances, and the node-placement generators
// used to build experiment topologies (grids, uniform scatters, clustered
// deployments, and lines).
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// String formats the point with two decimals.
func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// Grid places rows×cols points with the given spacing, starting at the
// origin and proceeding row-major.
func Grid(rows, cols int, spacing float64) []Point {
	pts := make([]Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return pts
}

// Line places n points on the x-axis with the given spacing.
func Line(n int, spacing float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: float64(i) * spacing}
	}
	return pts
}

// Uniform places n points uniformly at random in the side×side square.
func Uniform(rng *rand.Rand, n int, side float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pts
}
