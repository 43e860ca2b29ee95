package netgraph

import (
	"math"
	"math/rand"

	"dynsched/internal/geom"
)

// GridNetwork builds a rows×cols grid with the given spacing. Each pair
// of horizontally or vertically adjacent nodes is connected by links in
// both directions.
func GridNetwork(rows, cols int, spacing float64) *Graph {
	g := New(rows * cols)
	if err := g.SetPositions(geom.Grid(rows, cols, spacing)); err != nil {
		panic(err) // sizes match by construction
	}
	node := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddLink(node(r, c), node(r, c+1))
				g.MustAddLink(node(r, c+1), node(r, c))
			}
			if r+1 < rows {
				g.MustAddLink(node(r, c), node(r+1, c))
				g.MustAddLink(node(r+1, c), node(r, c))
			}
		}
	}
	return g
}

// LineNetwork builds n nodes on a line with bidirectional links between
// neighbours.
func LineNetwork(n int, spacing float64) *Graph {
	g := New(n)
	if err := g.SetPositions(geom.Line(n, spacing)); err != nil {
		panic(err)
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddLink(NodeID(i), NodeID(i+1))
		g.MustAddLink(NodeID(i+1), NodeID(i))
	}
	return g
}

// RandomGeometric places n nodes uniformly in a side×side square and
// connects every ordered pair within the given radius.
func RandomGeometric(rng *rand.Rand, n int, side, radius float64) *Graph {
	g := New(n)
	pts := geom.Uniform(rng, n, side)
	if err := g.SetPositions(pts); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && pts[i].Dist(pts[j]) <= radius {
				g.MustAddLink(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// RandomPairs builds n disjoint sender→receiver links: senders are
// uniform in the side×side square and each receiver sits at a uniform
// angle and a length uniform in [minLen, maxLen] from its sender. This
// is the standard topology for static SINR scheduling experiments.
func RandomPairs(rng *rand.Rand, n int, side, minLen, maxLen float64) *Graph {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	g := New(2 * n)
	pts := make([]geom.Point, 2*n)
	for i := 0; i < n; i++ {
		s := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		length := minLen + rng.Float64()*(maxLen-minLen)
		angle := rng.Float64() * 2 * 3.141592653589793
		r := geom.Point{X: s.X + length*math.Cos(angle), Y: s.Y + length*math.Sin(angle)}
		pts[2*i], pts[2*i+1] = s, r
	}
	if err := g.SetPositions(pts); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		g.MustAddLink(NodeID(2*i), NodeID(2*i+1))
	}
	return g
}

// PairsAt builds disjoint sender→receiver links from explicit sender
// positions: each receiver sits at a uniform angle and a length uniform
// in [minLen, maxLen] from its sender, drawn from rng in sender order.
// It is RandomPairs with the sender placement factored out, so
// procedural generators (clustered, gridded, …) can supply their own
// spatial processes and still share the link geometry.
func PairsAt(rng *rand.Rand, senders []geom.Point, minLen, maxLen float64) *Graph {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	n := len(senders)
	g := New(2 * n)
	pts := make([]geom.Point, 2*n)
	for i, s := range senders {
		length := minLen + rng.Float64()*(maxLen-minLen)
		angle := rng.Float64() * 2 * 3.141592653589793
		r := geom.Point{X: s.X + length*math.Cos(angle), Y: s.Y + length*math.Sin(angle)}
		pts[2*i], pts[2*i+1] = s, r
	}
	if err := g.SetPositions(pts); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		g.MustAddLink(NodeID(2*i), NodeID(2*i+1))
	}
	return g
}

// NestedChain builds n collinear sender→receiver pairs with
// exponentially growing lengths: link i has length growth^i and starts
// one unit after the previous link ends. This is the classic hard
// instance for uniform transmission powers — each short link's sender
// sits close to all longer links' receivers relative to their lengths,
// so the monotone interference measure concentrates on the long links —
// while linear power assignments handle it gracefully.
func NestedChain(n int, growth float64) *Graph {
	if growth < 1.1 {
		growth = 2
	}
	g := New(2 * n)
	pts := make([]geom.Point, 2*n)
	x := 0.0
	length := 1.0
	for i := 0; i < n; i++ {
		pts[2*i] = geom.Point{X: x}
		pts[2*i+1] = geom.Point{X: x + length}
		x += length + 1
		length *= growth
	}
	if err := g.SetPositions(pts); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		g.MustAddLink(NodeID(2*i), NodeID(2*i+1))
	}
	return g
}

// MACChannel builds the abstract multiple-access-channel topology: n
// stations, each with one link to a common sink. Geometry is omitted;
// only the all-ones interference model is meaningful on this graph.
func MACChannel(n int) *Graph {
	g := New(n + 1)
	sink := NodeID(n)
	for i := 0; i < n; i++ {
		g.MustAddLink(NodeID(i), sink)
	}
	return g
}
