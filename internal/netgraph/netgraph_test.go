package netgraph

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/geom"
)

func TestAddLink(t *testing.T) {
	g := New(3)
	id, err := g.AddLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("first link ID %d, want 0", id)
	}
	// Duplicates return the existing ID.
	id2, err := g.AddLink(0, 1)
	if err != nil || id2 != id {
		t.Errorf("duplicate AddLink = (%d, %v), want (%d, nil)", id2, err, id)
	}
	// The reverse direction is a distinct link.
	rev, err := g.AddLink(1, 0)
	if err != nil || rev == id {
		t.Errorf("reverse link = (%d, %v)", rev, err)
	}
	if g.NumLinks() != 2 {
		t.Errorf("NumLinks = %d, want 2", g.NumLinks())
	}
	if _, err := g.AddLink(0, 5); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := g.AddLink(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestAdjacency(t *testing.T) {
	g := New(4)
	a := g.MustAddLink(0, 1)
	b := g.MustAddLink(0, 2)
	c := g.MustAddLink(2, 0)
	if out := g.Out(0); len(out) != 2 || out[0] != a || out[1] != b {
		t.Errorf("Out(0) = %v", out)
	}
	if in := g.In(0); len(in) != 1 || in[0] != c {
		t.Errorf("In(0) = %v", in)
	}
	if id, ok := g.FindLink(0, 2); !ok || id != b {
		t.Errorf("FindLink(0,2) = (%d,%v)", id, ok)
	}
	if _, ok := g.FindLink(1, 0); ok {
		t.Error("FindLink found a non-existent link")
	}
}

func TestPositionsAndDistances(t *testing.T) {
	g := New(2)
	if g.HasPositions() {
		t.Error("new graph claims positions")
	}
	if err := g.SetPositions([]geom.Point{{X: 0, Y: 0}}); err == nil {
		t.Error("SetPositions accepted wrong length")
	}
	if err := g.SetPositions([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}); err != nil {
		t.Fatal(err)
	}
	id := g.MustAddLink(0, 1)
	if d := g.LinkDist(id); math.Abs(d-5) > 1e-12 {
		t.Errorf("LinkDist = %v, want 5", d)
	}
	// Sender of id → receiver of id is the link itself.
	if d := g.SenderReceiverDist(id, id); math.Abs(d-5) > 1e-12 {
		t.Errorf("SenderReceiverDist(id,id) = %v, want 5", d)
	}
}

func TestPosPanicsWithoutPositions(t *testing.T) {
	g := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Pos without positions should panic")
		}
	}()
	g.Pos(0)
}

func TestPathValidate(t *testing.T) {
	g := New(4)
	a := g.MustAddLink(0, 1)
	b := g.MustAddLink(1, 2)
	c := g.MustAddLink(3, 2)

	if err := (Path{a, b}).Validate(g); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := (Path{a, c}).Validate(g); err == nil {
		t.Error("disconnected path accepted")
	}
	if err := (Path{}).Validate(g); err == nil {
		t.Error("empty path accepted")
	}
	if err := (Path{LinkID(99)}).Validate(g); err == nil {
		t.Error("out-of-range link accepted")
	}
	p := Path{a, b}
	if p.Source(g) != 0 || p.Dest(g) != 2 {
		t.Errorf("source/dest = %d/%d, want 0/2", p.Source(g), p.Dest(g))
	}
}

func TestShortestPath(t *testing.T) {
	g := LineNetwork(5, 1)
	p, ok := ShortestPath(g, 0, 4)
	if !ok {
		t.Fatal("no path found on line network")
	}
	if len(p) != 4 {
		t.Errorf("path length %d, want 4", len(p))
	}
	if err := p.Validate(g); err != nil {
		t.Errorf("shortest path invalid: %v", err)
	}
	if p.Source(g) != 0 || p.Dest(g) != 4 {
		t.Errorf("endpoints %d→%d, want 0→4", p.Source(g), p.Dest(g))
	}
	// Same-node path.
	if p, ok := ShortestPath(g, 2, 2); !ok || len(p) != 0 {
		t.Errorf("self path = (%v, %v)", p, ok)
	}
	// Unreachable.
	iso := New(2)
	if _, ok := ShortestPath(iso, 0, 1); ok {
		t.Error("found path in edgeless graph")
	}
}

func TestRoutingTableMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomGeometric(rng, 30, 10, 3.5)
	rt := NewRoutingTable(g)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			direct, okDirect := ShortestPath(g, u, v)
			stored, okStored := rt.Path(u, v)
			if okDirect != okStored {
				t.Fatalf("reachability mismatch %d→%d: %v vs %v", u, v, okDirect, okStored)
			}
			if okDirect && len(direct) != len(stored) {
				t.Fatalf("path length mismatch %d→%d: %d vs %d", u, v, len(direct), len(stored))
			}
			if okStored && len(stored) > 0 {
				if err := stored.Validate(g); err != nil {
					t.Fatalf("stored path invalid: %v", err)
				}
				if stored.Source(g) != u || stored.Dest(g) != v {
					t.Fatalf("stored path endpoints wrong for %d→%d", u, v)
				}
			}
		}
	}
}

func TestInstanceM(t *testing.T) {
	g := LineNetwork(5, 1) // 8 links
	in := NewInstance(g, 4)
	if in.M() != 8 {
		t.Errorf("M = %d, want 8 (links dominate)", in.M())
	}
	in2 := NewInstance(g, 20)
	if in2.M() != 20 {
		t.Errorf("M = %d, want 20 (D dominates)", in2.M())
	}
	if NewInstance(g, -1).D != 1 {
		t.Error("negative D not clamped")
	}
}

func TestGridNetwork(t *testing.T) {
	g := GridNetwork(3, 3, 2)
	if g.NumNodes() != 9 {
		t.Fatalf("nodes = %d, want 9", g.NumNodes())
	}
	// 12 undirected grid edges, two directions each.
	if g.NumLinks() != 24 {
		t.Errorf("links = %d, want 24", g.NumLinks())
	}
	// Corner-to-corner path exists with 4 hops.
	p, ok := ShortestPath(g, 0, 8)
	if !ok || len(p) != 4 {
		t.Errorf("corner path = (%v, %v), want length 4", p, ok)
	}
	for _, l := range g.Links() {
		if d := g.LinkDist(l.ID); math.Abs(d-2) > 1e-12 {
			t.Errorf("grid link %d length %v, want 2", l.ID, d)
		}
	}
}

func TestRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomPairs(rng, 20, 100, 1, 4)
	if g.NumLinks() != 20 {
		t.Fatalf("links = %d, want 20", g.NumLinks())
	}
	for i := 0; i < 20; i++ {
		d := g.LinkDist(LinkID(i))
		if d < 1-1e-9 || d > 4+1e-9 {
			t.Errorf("pair %d length %v outside [1,4]", i, d)
		}
	}
}

func TestMACChannelAndStar(t *testing.T) {
	g := MACChannel(5)
	if g.NumLinks() != 5 || g.NumNodes() != 6 {
		t.Errorf("MACChannel: %d links, %d nodes", g.NumLinks(), g.NumNodes())
	}
}

func TestNestedChain(t *testing.T) {
	g := NestedChain(5, 2)
	if g.NumLinks() != 5 {
		t.Fatalf("links = %d, want 5", g.NumLinks())
	}
	for i := 0; i < 5; i++ {
		want := math.Pow(2, float64(i))
		if d := g.LinkDist(LinkID(i)); math.Abs(d-want) > 1e-9 {
			t.Errorf("link %d length %v, want %v", i, d, want)
		}
	}
	// Degenerate growth is clamped, not accepted.
	g2 := NestedChain(3, 0.5)
	if d := g2.LinkDist(2); math.Abs(d-4) > 1e-9 {
		t.Errorf("clamped growth produced length %v, want 4", d)
	}
}

func TestSetMetric(t *testing.T) {
	g := New(3)
	good := [][]float64{
		{0, 1, 2},
		{1, 0, 1.5},
		{2, 1.5, 0},
	}
	if err := g.SetMetric(good); err != nil {
		t.Fatal(err)
	}
	if !g.HasMetric() || !g.HasDistances() {
		t.Fatal("metric not registered")
	}
	if d := g.NodeDist(0, 2); d != 2 {
		t.Errorf("NodeDist(0,2) = %v, want 2", d)
	}
	id := g.MustAddLink(0, 1)
	if d := g.LinkDist(id); d != 1 {
		t.Errorf("LinkDist = %v, want 1", d)
	}
	// Bad metrics are rejected.
	bad := [][]float64{
		{0, 1},
		{1, 0},
	}
	if err := g.SetMetric(bad); err == nil {
		t.Error("wrong-size metric accepted")
	}
	asym := [][]float64{
		{0, 1, 2},
		{3, 0, 1},
		{2, 1, 0},
	}
	if err := g.SetMetric(asym); err == nil {
		t.Error("asymmetric metric accepted")
	}
	negDiag := [][]float64{
		{1, 1, 2},
		{1, 0, 1},
		{2, 1, 0},
	}
	if err := g.SetMetric(negDiag); err == nil {
		t.Error("non-zero diagonal accepted")
	}
}

func TestMetricGraphSupportsSINR(t *testing.T) {
	// A three-link "general metric" instance with no planar embedding:
	// distances chosen to satisfy the triangle inequality but not be
	// Euclidean. The SINR model must build and behave sanely.
	g := New(6)
	const n = 6
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	set := func(i, j int, d float64) {
		dist[i][j] = d
		dist[j][i] = d
	}
	// Three sender-receiver pairs (0,1), (2,3), (4,5): short links far apart.
	set(0, 1, 1)
	set(2, 3, 1)
	set(4, 5, 1)
	for _, pair := range [][2]int{{0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 4}, {2, 5}, {3, 4}, {3, 5}} {
		set(pair[0], pair[1], 50)
	}
	if err := g.SetMetric(dist); err != nil {
		t.Fatal(err)
	}
	g.MustAddLink(0, 1)
	g.MustAddLink(2, 3)
	g.MustAddLink(4, 5)
	if !g.HasPositions() && !g.HasMetric() {
		t.Fatal("no distances")
	}
	if d := g.SenderReceiverDist(0, 1); d != 50 {
		t.Fatalf("cross distance %v, want 50", d)
	}
}
