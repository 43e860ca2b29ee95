package sinr

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dynsched/internal/geom"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// indexedOpts is the standard indexed-backing option set used by tests.
func indexedOpts(eps float64) Options {
	return Options{Backing: BackIndexed, FarFloor: eps}
}

// requireSameSlots drives count random slots (with duplicates allowed)
// through a reused resolver of each model and a fresh one of b per
// slot, and demands identical verdicts.
func requireSameSlots(t *testing.T, rng *rand.Rand, a, b interference.Model, n, count int) {
	t.Helper()
	resA, _ := a.NewResolver(0)
	resB, _ := b.NewResolver(0)
	for trial := 0; trial < count; trial++ {
		k := 1 + rng.Intn(2*n)
		tx := make([]int, k)
		for i := range tx {
			tx[i] = rng.Intn(n)
		}
		freshB, _ := b.NewResolver(1)
		want, gotR, gotF := resA(tx), resB(tx), freshB(tx)
		for i := range tx {
			if want[i] != gotR[i] {
				t.Fatalf("trial %d: resolver[%d] = %v, want %v (tx %v)", trial, i, gotR[i], want[i], tx)
			}
			if want[i] != gotF[i] {
				t.Fatalf("trial %d: fresh resolver[%d] = %v, want %v (tx %v)", trial, i, gotF[i], want[i], tx)
			}
		}
	}
}

// TestFixedPowerIndexedZeroFloorBitIdentity: at ε = 0 the indexed backing
// must be bit-identical to the table backings — same resolver verdicts,
// same weight matrix, entry for entry.
func TestFixedPowerIndexedZeroFloorBitIdentity(t *testing.T) {
	prm := DefaultParams()
	prm.Noise = 1e-4
	for _, tc := range []struct {
		name string
		kind WeightKind
		pk   PowerKind
	}{
		{"affectance/linear", WeightAffectance, PowerLinear},
		{"monotone/uniform", WeightMonotone, PowerUniform},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			g := netgraph.RandomPairs(rng, 48, 70, 1, 4)
			powers, err := Powers(g, prm, tc.pk, 1)
			if err != nil {
				t.Fatal(err)
			}
			table, err := NewFixedPower(g, prm, powers, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			indexed, err := NewFixedPowerOpts(g, prm, powers, tc.kind, indexedOpts(0))
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumLinks()
			requireSameSlots(t, rng, table, indexed, n, 200)
			for e := 0; e < n; e++ {
				for e2 := 0; e2 < n; e2++ {
					if w1, w2 := table.Weight(e, e2), indexed.Weight(e, e2); w1 != w2 {
						t.Fatalf("W[%d][%d]: table %v, indexed %v (bit-identity broken)", e, e2, w1, w2)
					}
				}
			}
			if got := indexed.Table().Backing; got != "indexed" {
				t.Fatalf("Table().Backing = %q, want indexed", got)
			}
		})
	}
}

// TestPowerControlIndexedZeroFloorBitIdentity: the power-control model's
// indexed backing at ε = 0 matches the table model bit for bit —
// feasibility verdicts, shedding decisions, solved powers, and weights.
func TestPowerControlIndexedZeroFloorBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	g := netgraph.RandomPairs(rng, 40, 60, 1, 4)
	prm := DefaultParams()
	table, err := NewPowerControl(g, prm)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := NewPowerControlOpts(g, prm, indexedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumLinks()
	requireSameSlots(t, rng, table, indexed, n, 120)
	for e := 0; e < n; e++ {
		for e2 := 0; e2 < n; e2++ {
			if w1, w2 := table.Weight(e, e2), indexed.Weight(e, e2); w1 != w2 {
				t.Fatalf("W[%d][%d]: table %v, indexed %v (bit-identity broken)", e, e2, w1, w2)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		perm := rng.Perm(n)
		set := perm[:2+rng.Intn(6)]
		sort.Ints(set)
		p1, ok1 := table.SolvePowers(set)
		p2, ok2 := indexed.SolvePowers(set)
		if ok1 != ok2 {
			t.Fatalf("trial %d: feasibility differs: table %v, indexed %v", trial, ok1, ok2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("trial %d: power[%d]: table %v, indexed %v", trial, i, p1[i], p2[i])
			}
		}
	}
}

// fullWalk is the reference oracle of indexedVerdict: the same ring walk
// run to completion, returning the finished estimate Î = near + tail at
// link e's receiver (near: noise plus the exact terms; tail: the cell
// aggregates plus the far-field closure). indexedVerdict must return
// exactly signal ≥ β·(near + tail).
func fullWalk(m *FixedPower, sc *fpScratch, e int, ring []int32) (near, tail float64) {
	alpha, beta := m.prm.Alpha, m.prm.Beta
	grid := &sc.grid
	q := m.recvPos[e]
	near = m.prm.Noise
	budget := m.opts.FarFloor * m.signals[e] / beta
	rex2 := math.Pow(m.pmax/budget, 2/alpha)
	cx, cy := grid.CellAt(q)
	visited := 0.0
	maxRing := grid.MaxRing(cx, cy)
	for r := 0; r <= maxRing; r++ {
		var cont bool
		ring, cont = grid.RingCells(cx, cy, r, ring[:0])
		for _, ci := range ring {
			w := grid.CellWeightAt(ci)
			if w == 0 {
				continue
			}
			visited += w
			d2 := grid.CellMinDistSqAt(q, ci)
			if d2 <= rex2 {
				for _, id := range grid.CellIDsAt(ci) {
					e2 := int(id)
					if e2 == e {
						continue
					}
					near += m.powers[e2] / math.Pow(m.sendPos[e2].Dist(q), alpha)
				}
			} else {
				tail += w / math.Pow(d2, alpha/2)
			}
		}
		if !cont {
			break
		}
		rem := sc.ptotal - visited
		if rem <= 0 {
			break
		}
		od, ok := grid.OuterDist(q, cx, cy, r)
		if !ok {
			break
		}
		if b := geom.FarFieldBound(alpha, rem, od); b <= budget {
			tail += b
			break
		}
	}
	return near, tail
}

// oracleVerdict is link e's SINR test on the oracle's finished estimate.
func oracleVerdict(m *FixedPower, sc *fpScratch, e int) bool {
	near, tail := fullWalk(m, sc, e, nil)
	return m.signals[e] >= m.prm.Beta*(near+tail)
}

// gridSlot sets up a fresh resolver scratch for tx exactly as the
// FarFloor > 0 resolver does (counting, selection, rounding allowances,
// grid), so tests can query one receiver at a time. Release it with
// endGridSlot.
func gridSlot(m *FixedPower, tx []int) *fpScratch {
	sc := &fpScratch{rs: interference.NewResolverScratch(m.NumLinks()), m: m, workers: 1}
	sc.rs.Begin(tx)
	sort.Ints(sc.rs.Uniq)
	m.beginGridSlot(sc)
	return sc
}

func endGridSlot(sc *fpScratch, tx []int) {
	sc.rs.End(tx)
}

// TestFixedPowerFarFloorSoundness: at ε > 0 the indexed estimate
// Î = near + tail must dominate the true interference at every receiver
// (the measured tail never exceeds the stated bound), so every success
// the indexed resolver reports is a true SINR success.
func TestFixedPowerFarFloorSoundness(t *testing.T) {
	prm := DefaultParams()
	prm.Noise = 1e-4
	rng := rand.New(rand.NewSource(107))
	g := netgraph.RandomPairs(rng, 96, 120, 1, 4)
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewFixedPower(g, prm, powers, WeightMonotone)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumLinks()
	resolveExact, _ := exact.NewResolver(1)
	for _, eps := range []float64{1e-6, 1e-3, 0.05} {
		m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, indexedOpts(eps))
		if err != nil {
			t.Fatal(err)
		}
		resolve, _ := m.NewResolver(1)
		for trial := 0; trial < 60; trial++ {
			k := 2 + rng.Intn(n)
			tx := rng.Perm(n)[:k]
			sort.Ints(tx)
			// Read Î from the oracle on the resolver's own slot setup.
			sc := gridSlot(m, tx)
			for _, e := range tx {
				near, tail := fullWalk(m, sc, e, nil)
				truth := prm.Noise
				for _, e2 := range tx {
					if e2 != e {
						truth += m.powers[e2] / math.Pow(m.sendPos[e2].Dist(m.recvPos[e]), prm.Alpha)
					}
				}
				if est := near + tail; est < truth*(1-1e-12) {
					t.Fatalf("eps=%g trial %d link %d: estimate %v below true interference %v", eps, trial, e, est, truth)
				}
				if near > truth*(1+1e-12) {
					t.Fatalf("eps=%g trial %d link %d: near part %v exceeds true interference %v", eps, trial, e, near, truth)
				}
			}
			endGridSlot(sc, tx)
			// End to end: indexed success ⊆ exact success.
			got, want := resolve(tx), resolveExact(tx)
			for i := range tx {
				if got[i] && !want[i] {
					t.Fatalf("eps=%g trial %d: link %d reported success but fails the exact SINR test", eps, trial, tx[i])
				}
			}
		}
	}
}

// verdictNetwork builds n random links for the differential test: senders
// uniform on a square of the given side shifted by off, receivers 1–4
// away at random angles. Every 17th link duplicates an earlier link's
// geometry, and every 29th sender sits on an earlier link's receiver (an
// infinite interference term).
func verdictNetwork(rng *rand.Rand, n int, side float64, off geom.Point) *netgraph.Graph {
	pts := make([]geom.Point, 2*n)
	for i := 0; i < n; i++ {
		s := geom.Point{X: off.X + rng.Float64()*side, Y: off.Y + rng.Float64()*side}
		length, angle := 1+3*rng.Float64(), 2*math.Pi*rng.Float64()
		pts[2*i] = s
		pts[2*i+1] = geom.Point{X: s.X + length*math.Cos(angle), Y: s.Y + length*math.Sin(angle)}
		switch j := rng.Intn(max(i, 1)); {
		case i > 0 && i%17 == 0:
			pts[2*i], pts[2*i+1] = pts[2*j], pts[2*j+1]
		case i > 0 && i%29 == 0 && pts[2*j+1] != pts[2*i+1]:
			pts[2*i] = pts[2*j+1]
		}
	}
	g := netgraph.New(2 * n)
	if err := g.SetPositions(pts); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		g.MustAddLink(netgraph.NodeID(2*i), netgraph.NodeID(2*i+1))
	}
	return g
}

// stackNetwork is the tight case of the early-success bound: link 0
// points left from the origin (receiver at (-0.5, 0)) and k links stack
// their senders at (d, 0), pointing right, all shifted by off. With unit
// cells, the stack sits exactly at the outer distance of the ring before
// its own, so there the bound equals the finished estimate's last term
// in exact arithmetic, and only the rounding allowances tell them apart.
func stackNetwork(d, k int, off geom.Point) *netgraph.Graph {
	pts := []geom.Point{{X: off.X, Y: off.Y}, {X: off.X - 0.5, Y: off.Y}}
	for i := 0; i < k; i++ {
		pts = append(pts, geom.Point{X: off.X + float64(d), Y: off.Y}, geom.Point{X: off.X + float64(d) + 0.5, Y: off.Y})
	}
	g := netgraph.New(len(pts))
	if err := g.SetPositions(pts); err != nil {
		panic(err)
	}
	for i := 0; i < len(pts); i += 2 {
		g.MustAddLink(netgraph.NodeID(i), netgraph.NodeID(i+1))
	}
	return g
}

// TestIndexedVerdictMatchesFullWalk is the differential test of the
// early-stopping ring walk against the oracle: random networks over
// α ∈ {2.2, 2.5, 3, 4, 6}, varied β and ε ∈ [1e-6, 0.9], uniform and
// linear powers, duplicate and co-located links, coordinates offset by up
// to 1e9, and random slots with repeated transmitters. Every verdict —
// per receiver and through the resolver — must equal the finished
// walk's. Each slot then moves a few receivers' signals onto their
// threshold β·Î and a few ulps either side, where a wrong early success
// would show.
func TestIndexedVerdictMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	alphas := []float64{2.2, 2.5, 3, 4, 6}
	offsets := []float64{0, 1e3, 1e6, 1e9}
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	verdicts, ties := 0, 0
	for round := 0; round < rounds; round++ {
		prm := Params{Alpha: alphas[round%len(alphas)], Beta: 0.5 + 4*rng.Float64()}
		eps := math.Pow(10, -6+rng.Float64()*(6+math.Log10(0.9)))
		pk := PowerUniform
		if rng.Intn(2) == 0 {
			pk = PowerLinear
		}
		scale := offsets[rng.Intn(len(offsets))]
		off := geom.Point{X: (2*rng.Float64() - 1) * scale, Y: (2*rng.Float64() - 1) * scale}
		n := 32 + rng.Intn(300)
		g := verdictNetwork(rng, n, math.Sqrt(float64(n))*(1+5*rng.Float64()), off)
		powers, err := Powers(g, prm, pk, 1)
		if err != nil {
			t.Fatal(err)
		}
		prm.Noise = MaxNoise(g, prm, powers, 0.5) * rng.Float64()
		m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, indexedOpts(eps))
		if err != nil {
			t.Fatal(err)
		}
		resolve, _ := m.NewResolver(1)
		for trial := 0; trial < 12; trial++ {
			tx := make([]int, 1+rng.Intn(2*n))
			for i := range tx {
				tx[i] = rng.Intn(n)
			}
			got := append([]bool(nil), resolve(tx)...)
			sc := gridSlot(m, tx)
			for i, e := range tx {
				want := sc.rs.Counts[e] == 1 && oracleVerdict(m, sc, e)
				if got[i] != want {
					t.Fatalf("round %d trial %d: resolver verdict of link %d = %v, full walk %v (α=%g β=%g ε=%g off=%v)",
						round, trial, e, got[i], want, prm.Alpha, prm.Beta, eps, off)
				}
				verdicts++
			}
			for _, e := range tx[:min(len(tx), 4)] {
				if sc.rs.Counts[e] == 1 {
					ties += checkTies(t, m, sc, e)
				}
			}
			endGridSlot(sc, tx)
		}
	}
	// The tight case, at every threshold probe: stacks of 1–8 senders
	// at distance 1–12, summed exactly (kε < 1) or as one aggregated
	// cell, near the origin and at a lattice-aligned offset of 2³⁰.
	for _, alpha := range alphas {
		for _, eps := range []float64{1e-6, 0.1, 0.5, 0.9} {
			for _, off := range []geom.Point{{}, {X: 0x1p30, Y: -0x1p30}} {
				for d := 1; d <= 12; d++ {
					for k := 1; k <= 8; k++ {
						g := stackNetwork(d, k, off)
						prm := Params{Alpha: alpha, Beta: 1 + rng.Float64(), Noise: 1e-9 * rng.Float64()}
						powers, err := Powers(g, prm, PowerUniform, 1)
						if err != nil {
							t.Fatal(err)
						}
						opt := indexedOpts(eps)
						opt.CellSize = 1
						m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, opt)
						if err != nil {
							t.Fatal(err)
						}
						tx := make([]int, k+1)
						for i := range tx {
							tx[i] = i
						}
						sc := gridSlot(m, tx)
						ties += checkTies(t, m, sc, 0)
						endGridSlot(sc, tx)
					}
				}
			}
		}
	}
	t.Logf("%d verdicts, %d at or next to a threshold", verdicts, ties)
}

// checkTies moves link e's signal onto the threshold β·Î of the finished
// estimate (iterating, since the signal also sets the floor budget) and
// two ulps either side, and compares indexedVerdict with the oracle at
// each. It restores the signal and returns the number of checks. Each
// signal it sets refreshes the link's exact radius, which the model
// keeps per link.
func checkTies(t *testing.T, m *FixedPower, sc *fpScratch, e int) int {
	t.Helper()
	setSignal := func(s float64) {
		m.signals[e] = s
		m.rex2[e] = m.exactRadiusSq(s)
	}
	orig := m.signals[e]
	defer setSignal(orig)
	sig := orig
	for i := 0; i < 4; i++ {
		near, tail := fullWalk(m, sc, e, nil)
		next := m.prm.Beta * (near + tail)
		if next == sig || !(next > 0) || math.IsInf(next, 1) {
			break
		}
		sig = next
		setSignal(sig)
	}
	lo, hi := math.Nextafter(sig, 0), math.Nextafter(sig, math.Inf(1))
	probes := []float64{math.Nextafter(lo, 0), lo, sig, hi, math.Nextafter(hi, math.Inf(1))}
	var ring []int32
	for _, s := range probes {
		setSignal(s)
		if got, want := m.indexedVerdict(sc, e, &ring), oracleVerdict(m, sc, e); got != want {
			t.Fatalf("link %d at signal %v (threshold %v): verdict %v, full walk %v", e, s, sig, got, want)
		}
	}
	return len(probes)
}

// TestFixedPowerFloorSparseWeights: the ε > 0 analysis matrix keeps every
// dense entry that reaches the floor — bit-identical — and drops only
// entries provably below it.
func TestFixedPowerFloorSparseWeights(t *testing.T) {
	prm := DefaultParams()
	prm.Noise = 1e-4
	rng := rand.New(rand.NewSource(109))
	g := netgraph.RandomPairs(rng, 64, 90, 1, 4)
	const eps = 1e-3
	for _, tc := range []struct {
		name string
		kind WeightKind
		pk   PowerKind
	}{
		{"affectance/linear", WeightAffectance, PowerLinear},
		{"monotone/uniform", WeightMonotone, PowerUniform},
	} {
		t.Run(tc.name, func(t *testing.T) {
			powers, err := Powers(g, prm, tc.pk, 1)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := NewFixedPower(g, prm, powers, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := NewFixedPowerOpts(g, prm, powers, tc.kind, indexedOpts(eps))
			if err != nil {
				t.Fatal(err)
			}
			checkFloorSparse(t, g.NumLinks(), eps, dense.Weight, sparse.Weight)
			if rows := sparse.WeightRows(); rows.NNZ() >= g.NumLinks()*g.NumLinks() {
				t.Fatalf("floor-sparse matrix is not sparse: %d entries", rows.NNZ())
			}
		})
	}
}

// TestPowerControlFloorSparseWeights: same contract for the §6.2
// distance-ratio matrix.
func TestPowerControlFloorSparseWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	g := netgraph.RandomPairs(rng, 64, 90, 1, 4)
	prm := DefaultParams()
	const eps = 1e-3
	dense, err := NewPowerControl(g, prm)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewPowerControlOpts(g, prm, indexedOpts(eps))
	if err != nil {
		t.Fatal(err)
	}
	checkFloorSparse(t, g.NumLinks(), eps, dense.Weight, sparse.Weight)
}

// checkFloorSparse verifies the floor-sparse contract entry by entry:
// every stored entry equals the dense value bit for bit, every dropped
// off-diagonal entry is below the floor in the dense matrix.
func checkFloorSparse(t *testing.T, n int, eps float64, dense, sparse func(e, e2 int) float64) {
	t.Helper()
	kept, dropped := 0, 0
	for e := 0; e < n; e++ {
		for e2 := 0; e2 < n; e2++ {
			d, s := dense(e, e2), sparse(e, e2)
			if s != 0 {
				if s != d {
					t.Fatalf("W[%d][%d]: sparse %v, dense %v (stored entries must match bitwise)", e, e2, s, d)
				}
				kept++
				continue
			}
			if e == e2 {
				t.Fatalf("diagonal W[%d][%d] dropped", e, e2)
			}
			if d >= eps {
				t.Fatalf("W[%d][%d] = %v ≥ floor %v but was dropped", e, e2, d, eps)
			}
			dropped++
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("degenerate instance: %d kept, %d dropped entries — tune the test geometry", kept, dropped)
	}
}

// TestOptionsBackingSelection pins the configurable dense/CSR threshold
// and forced backings.
func TestOptionsBackingSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	g := netgraph.RandomPairs(rng, 24, 40, 1, 4)
	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(opt Options) *FixedPower {
		t.Helper()
		m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Default: n = 24 is far below crossDenseMaxLinks, so dense.
	if m := build(Options{}); m.gain.dense == nil || m.Table().Backing != "dense" {
		t.Fatalf("default backing = %q (dense table: %v), want dense", m.Table().Backing, m.gain.dense != nil)
	}
	// Lowering the threshold flips the same instance to CSR.
	if m := build(Options{DenseMaxLinks: 8}); m.gain.rows == nil || m.Table().Backing != "csr" {
		t.Fatalf("DenseMaxLinks=8 backing = %q, want csr", m.Table().Backing)
	}
	if m := build(Options{DenseMaxLinks: 8}); m.Table().DenseMaxLinks != 8 {
		t.Fatalf("TableInfo.DenseMaxLinks = %d, want 8", m.Table().DenseMaxLinks)
	}
	// Forced backings override the threshold in both directions.
	if m := build(Options{Backing: BackCSR}); m.gain.rows == nil {
		t.Fatal("BackCSR did not force the CSR backing")
	}
	if m := build(Options{Backing: BackDense, DenseMaxLinks: 2}); m.gain.dense == nil {
		t.Fatal("BackDense did not force the dense backing")
	}
	// All four backings agree on outcomes.
	table := build(Options{})
	for _, opt := range []Options{{Backing: BackCSR}, {Backing: BackIndexed}} {
		requireSameSlots(t, rng, table, build(opt), g.NumLinks(), 50)
	}
}

// TestOptionsValidation pins the option error paths and ParseBacking.
func TestOptionsValidation(t *testing.T) {
	for s, want := range map[string]Backing{
		"": BackAuto, "auto": BackAuto, "dense": BackDense,
		"csr": BackCSR, "indexed": BackIndexed,
	} {
		got, err := ParseBacking(s)
		if err != nil || got != want {
			t.Fatalf("ParseBacking(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseBacking("mmap"); err == nil {
		t.Fatal("ParseBacking accepted an unknown backing")
	}
	for name, opt := range map[string]Options{
		"farfloor without indexed": {FarFloor: 0.1},
		"farfloor ≥ 1":             {Backing: BackIndexed, FarFloor: 1},
		"negative farfloor":        {Backing: BackIndexed, FarFloor: -0.1},
		"negative cell":            {Backing: BackIndexed, CellSize: -1},
		"negative threshold":       {DenseMaxLinks: -1},
	} {
		if err := opt.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", name, opt)
		}
	}
	rng := rand.New(rand.NewSource(131))
	g := netgraph.RandomPairs(rng, 8, 20, 1, 4)
	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A metric override has no planar geometry to index.
	dm := make([][]float64, g.NumNodes())
	for i := range dm {
		dm[i] = make([]float64, g.NumNodes())
		for j := range dm[i] {
			if i != j {
				dm[i][j] = g.NodeDist(netgraph.NodeID(i), netgraph.NodeID(j))
			}
		}
	}
	gm := netgraph.New(g.NumNodes())
	for e := 0; e < g.NumLinks(); e++ {
		l := g.Link(netgraph.LinkID(e))
		gm.MustAddLink(l.From, l.To)
	}
	gm.SetMetric(dm)
	if _, err := NewFixedPowerOpts(gm, prm, powers, WeightMonotone, indexedOpts(0)); err == nil {
		t.Fatal("indexed backing accepted a metric-only graph")
	}
	if _, err := NewPowerControlOpts(gm, prm, indexedOpts(0)); err == nil {
		t.Fatal("power-control indexed backing accepted a metric-only graph")
	}
}
