package sinr

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/netgraph"
)

// TestFixedPowerGainTableMatchesFormula pins the tentpole bit-identity
// guarantee at its root: every gain table entry equals the expression
// the pre-table hot loop evaluated inline — p(ℓ')/d(s', r)^α — bit for
// bit. Everything downstream (the resolvers, the weight
// matrices) sums these same values in the same order, so equality here
// is what makes the end-to-end results byte-identical.
func TestFixedPowerGainTableMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := netgraph.RandomPairs(rng, 48, 80, 1, 4)
	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerLinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPower(g, prm, powers, WeightAffectance)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumLinks()
	for e := 0; e < n; e++ {
		recv := g.Link(netgraph.LinkID(e)).To
		for e2 := 0; e2 < n; e2++ {
			d := g.NodeDist(g.Link(netgraph.LinkID(e2)).From, recv)
			want := powers[e2] / math.Pow(d, prm.Alpha)
			got := m.gain.at(e, e2)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("gain[%d][%d] = %v, want %v (bit-identity broken)", e, e2, got, want)
			}
		}
	}
}

// TestFixedPowerWeightsMatchAffectance pins that the table-driven weight
// build reproduces the Affectance-based construction bit for bit, for
// both weight kinds.
func TestFixedPowerWeightsMatchAffectance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := netgraph.RandomPairs(rng, 40, 80, 1, 4)
	prm := DefaultParams()
	prm.Noise = 1e-6
	for _, tc := range []struct {
		kind WeightKind
		pk   PowerKind
	}{{WeightAffectance, PowerLinear}, {WeightMonotone, PowerUniform}} {
		powers, err := Powers(g, prm, tc.pk, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewFixedPower(g, prm, powers, tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumLinks()
		for e := 0; e < n; e++ {
			for e2 := 0; e2 < n; e2++ {
				var want float64
				switch {
				case e == e2:
					want = 1
				case tc.kind == WeightAffectance:
					want = Affectance(g, prm, powers, netgraph.LinkID(e2), netgraph.LinkID(e))
				default:
					if m.lens[e] <= m.lens[e2] {
						a1 := Affectance(g, prm, powers, netgraph.LinkID(e), netgraph.LinkID(e2))
						a2 := Affectance(g, prm, powers, netgraph.LinkID(e2), netgraph.LinkID(e))
						want = math.Max(a1, a2)
					}
				}
				if got := m.Weight(e, e2); got != want {
					t.Fatalf("%s W[%d][%d] = %v, want %v (bit-identity broken)", kindName(tc.kind), e, e2, got, want)
				}
			}
		}
	}
}

// referenceFixedVerdicts is the pre-table slot resolution,
// kept verbatim (map bookkeeping and all) as the oracle for the
// table-driven fast paths.
func referenceFixedVerdicts(m *FixedPower, tx []int) []bool {
	g, prm := m.Graph(), m.Params()
	out := make([]bool, len(tx))
	if len(tx) == 0 {
		return out
	}
	counts := make([]int, g.NumLinks())
	for _, e := range tx {
		counts[e]++
	}
	uniq := make([]int, 0, len(tx))
	for e, c := range counts {
		if c > 0 {
			uniq = append(uniq, e)
		}
	}
	ok := make(map[int]bool, len(uniq))
	for _, e := range uniq {
		if counts[e] != 1 {
			continue
		}
		interf := prm.Noise
		recv := g.Link(netgraph.LinkID(e)).To
		for _, e2 := range uniq {
			if e2 == e {
				continue
			}
			d := g.NodeDist(g.Link(netgraph.LinkID(e2)).From, recv)
			if d == 0 {
				interf = math.Inf(1)
				break
			}
			interf += m.Power(e2) / math.Pow(d, prm.Alpha)
		}
		signal := m.Power(e) / math.Pow(m.LinkLen(e), prm.Alpha)
		ok[e] = signal >= prm.Beta*interf
	}
	for i, e := range tx {
		out[i] = counts[e] == 1 && ok[e]
	}
	return out
}

// TestFixedPowerSuccessesMatchesReference drives random slots through a
// fresh resolver per slot, one reused resolver, and the pre-table
// reference, demanding identical outcomes — including duplicate links
// and co-located nodes.
func TestFixedPowerSuccessesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := netgraph.RandomPairs(rng, 32, 40, 1, 4)
	prm := DefaultParams()
	prm.Noise = 1e-3
	powers, err := Powers(g, prm, PowerSquareRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPower(g, prm, powers, WeightMonotone)
	if err != nil {
		t.Fatal(err)
	}
	resolve, _ := m.NewResolver(0)
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(20)
		tx := make([]int, k)
		for i := range tx {
			tx[i] = rng.Intn(g.NumLinks())
		}
		want := referenceFixedVerdicts(m, tx)
		fresh, _ := m.NewResolver(1)
		got := fresh(tx)
		res := resolve(tx)
		for i := range tx {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fresh resolver[%d] = %v, reference %v (tx %v)", trial, i, got[i], want[i], tx)
			}
			if res[i] != want[i] {
				t.Fatalf("trial %d: resolver[%d] = %v, reference %v (tx %v)", trial, i, res[i], want[i], tx)
			}
		}
	}
}

// TestCrossTableCSRBackingMatchesDense pins that the CSR backing above
// the dense threshold returns the same entries as the dense backing —
// including dropped exact zeros and stored sentinels.
func TestCrossTableCSRBackingMatchesDense(t *testing.T) {
	const n = 12
	entry := func(at, src int) float64 {
		switch (at*n + src) % 5 {
		case 0:
			return 0 // dropped by CSR; must read back as exact 0
		case 1:
			return -1 // sentinel; must be stored
		case 2:
			return math.Inf(1)
		default:
			return float64(at*n+src) * 0.5
		}
	}
	dense := buildCrossTable(n, Options{}, entry)
	if dense.dense == nil {
		t.Fatal("small table should be dense-backed")
	}
	// Force the CSR path the large tables take.
	big := buildCrossTable(n, Options{Backing: BackCSR}, entry)
	if big.rows == nil {
		t.Fatal("BackCSR table should be CSR-backed")
	}
	for at := 0; at < n; at++ {
		for src := 0; src < n; src++ {
			d, c := dense.at(at, src), big.at(at, src)
			if d != c && !(math.IsNaN(d) && math.IsNaN(c)) {
				t.Fatalf("entry (%d,%d): dense %v, csr %v", at, src, d, c)
			}
		}
	}
}
