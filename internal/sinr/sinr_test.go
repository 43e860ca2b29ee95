package sinr

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/geom"
	"dynsched/internal/netgraph"
)

// pairGraph builds n disjoint sender→receiver pairs on a long line:
// pair i has sender at x = i·sep and receiver at x = i·sep + length.
func pairGraph(t *testing.T, n int, sep, length float64) *netgraph.Graph {
	t.Helper()
	g := netgraph.New(2 * n)
	pts := make([]geom.Point, 2*n)
	for i := 0; i < n; i++ {
		pts[2*i] = geom.Point{X: float64(i) * sep}
		pts[2*i+1] = geom.Point{X: float64(i)*sep + length}
	}
	if err := g.SetPositions(pts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g.MustAddLink(netgraph.NodeID(2*i), netgraph.NodeID(2*i+1))
	}
	return g
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Alpha: 0, Beta: 1, Noise: 0},
		{Alpha: 3, Beta: 0, Noise: 0},
		{Alpha: 3, Beta: 1, Noise: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestPowers(t *testing.T) {
	g := pairGraph(t, 3, 100, 2)
	prm := DefaultParams()
	uni, err := Powers(g, prm, PowerUniform, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range uni {
		if p != 5 {
			t.Errorf("uniform power %v, want 5", p)
		}
	}
	lin, err := Powers(g, prm, PowerLinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(2, prm.Alpha)
	for _, p := range lin {
		if math.Abs(p-want) > 1e-9 {
			t.Errorf("linear power %v, want %v", p, want)
		}
	}
	sqrt, err := Powers(g, prm, PowerSquareRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSqrt := math.Pow(2, prm.Alpha/2)
	for _, p := range sqrt {
		if math.Abs(p-wantSqrt) > 1e-9 {
			t.Errorf("sqrt power %v, want %v", p, wantSqrt)
		}
	}
	if _, err := Powers(g, prm, PowerUniform, 0); err == nil {
		t.Error("zero base power accepted")
	}
	if _, err := Powers(g, prm, PowerKind(99), 1); err == nil {
		t.Error("unknown power kind accepted")
	}
}

func TestMonotoneSubLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := netgraph.RandomPairs(rng, 12, 50, 1, 6)
	prm := DefaultParams()
	for _, kind := range []PowerKind{PowerUniform, PowerLinear, PowerSquareRoot} {
		p, err := Powers(g, prm, kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !MonotoneSubLinear(g, prm, p) {
			t.Errorf("%v assignment not recognized as monotone sub-linear", kind)
		}
	}
	// A deliberately anti-monotone assignment must be rejected: give the
	// longest link the least power.
	powers := make([]float64, g.NumLinks())
	for i := range powers {
		powers[i] = 1 / math.Pow(g.LinkDist(netgraph.LinkID(i)), prm.Alpha)
	}
	// p(ℓ) decreasing in length violates monotonicity (p(ℓ) ≤ p(ℓ')).
	if MonotoneSubLinear(g, prm, powers) {
		t.Error("anti-monotone assignment accepted")
	}
}

func TestAffectanceBasics(t *testing.T) {
	// Two parallel unit links far apart: negligible mutual affectance.
	g := pairGraph(t, 2, 1000, 1)
	prm := Params{Alpha: 3, Beta: 1, Noise: 0}
	p, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := Affectance(g, prm, p, 0, 1)
	if a > 1e-6 {
		t.Errorf("distant affectance %v, want ≈0", a)
	}
	// Self-affectance is capped at 1.
	if self := Affectance(g, prm, p, 0, 0); self != 1 {
		t.Errorf("self affectance %v, want 1", self)
	}
	// Close links: pair 1's sender sits 0.2 away from pair 0's receiver,
	// so its affectance on link 0 is huge (capped at 1).
	g2 := pairGraph(t, 2, 1.2, 1)
	p2, err := Powers(g2, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2 := Affectance(g2, prm, p2, 1, 0)
	if a2 < 0.5 {
		t.Errorf("close affectance %v, want large", a2)
	}
}

func TestAffectanceMonotoneInDistance(t *testing.T) {
	prm := DefaultParams()
	prev := math.Inf(1)
	for _, sep := range []float64{3, 5, 10, 30, 100} {
		g := pairGraph(t, 2, sep, 1)
		p, err := Powers(g, prm, PowerUniform, 1)
		if err != nil {
			t.Fatal(err)
		}
		a := Affectance(g, prm, p, 0, 1)
		if a > prev+1e-12 {
			t.Fatalf("affectance not monotone: %v at sep %v (prev %v)", a, sep, prev)
		}
		prev = a
	}
}

func TestMaxNoise(t *testing.T) {
	g := pairGraph(t, 2, 100, 2)
	prm := Params{Alpha: 3, Beta: 2, Noise: 0}
	p, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	nu := MaxNoise(g, prm, p, 1)
	// At exactly the max noise, a lone transmission is borderline feasible.
	prm.Noise = nu * 0.99
	m, err := NewFixedPower(g, prm, p, WeightAffectance)
	if err != nil {
		t.Fatal(err)
	}
	resolve, _ := m.NewResolver(1)
	if s := resolve([]int{0}); !s[0] {
		t.Error("lone transmission infeasible below MaxNoise")
	}
	prm.Noise = nu * 1.01
	m2, err := NewFixedPower(g, prm, p, WeightAffectance)
	if err != nil {
		t.Fatal(err)
	}
	resolve2, _ := m2.NewResolver(1)
	if s := resolve2([]int{0}); s[0] {
		t.Error("lone transmission feasible above MaxNoise")
	}
}

// TestFixedPowerOnGeneralMetric builds the SINR model over an explicit
// (non-Euclidean) metric, the general-metrics setting of Section 6.2.
func TestFixedPowerOnGeneralMetric(t *testing.T) {
	const n = 6
	g := netgraph.New(n)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	set := func(i, j int, d float64) { dist[i][j], dist[j][i] = d, d }
	set(0, 1, 1)
	set(2, 3, 1)
	set(4, 5, 1)
	for _, p := range [][2]int{{0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 4}, {2, 5}, {3, 4}, {3, 5}} {
		set(p[0], p[1], 40)
	}
	if err := g.SetMetric(dist); err != nil {
		t.Fatal(err)
	}
	g.MustAddLink(0, 1)
	g.MustAddLink(2, 3)
	g.MustAddLink(4, 5)

	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPower(g, prm, powers, WeightMonotone)
	if err != nil {
		t.Fatal(err)
	}
	// Links are metric-far apart: all three transmit at once.
	resolve, _ := m.NewResolver(1)
	s := resolve([]int{0, 1, 2})
	for i, ok := range s {
		if !ok {
			t.Errorf("metric-far link %d failed", i)
		}
	}
	// Power control works over the metric too.
	pc, err := NewPowerControl(g, prm)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pc.SolvePowers([]int{0, 1, 2}); !ok {
		t.Error("power control infeasible on metric-far links")
	}
}

func TestIsFadingMetric(t *testing.T) {
	prm := DefaultParams() // α = 3
	// A sparse line is ~1-dimensional: fading.
	line := netgraph.LineNetwork(10, 5)
	if !IsFadingMetric(line, prm) {
		t.Error("line metric not recognized as fading")
	}
	// A uniform star metric has doubling dimension ~log n > 3: general.
	const n = 24
	g := netgraph.New(n)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = 2
			}
		}
	}
	if err := g.SetMetric(dist); err != nil {
		t.Fatal(err)
	}
	if IsFadingMetric(g, prm) {
		t.Error("uniform star metric judged fading at α=3")
	}
}
