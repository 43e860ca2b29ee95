package radio

import (
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/static"
)

func TestRadioSemanticsOnLine(t *testing.T) {
	// 0 → 1 → 2 → 3 line; radio links both directions.
	g := netgraph.LineNetwork(4, 1)
	m, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := interference.ValidateWeights(m); err != nil {
		t.Fatal(err)
	}
	l01, _ := g.FindLink(0, 1)
	l12, _ := g.FindLink(1, 2)
	l23, _ := g.FindLink(2, 3)
	l32, _ := g.FindLink(3, 2)
	resolve, _ := m.NewResolver(1)

	// A lone transmission succeeds.
	if s := resolve([]int{int(l01)}); !s[0] {
		t.Error("lone radio transmission failed")
	}
	// 0→1 and 2→3: node 2's transmission is audible at 1? Node 1 hears
	// {0, 2}; both 0 and 2 transmit → collision at 1, link 2→3 has
	// receiver 3 hearing only {2} → succeeds.
	s := resolve([]int{int(l01), int(l23)})
	if s[0] {
		t.Error("0→1 should collide (receiver 1 also hears 2)")
	}
	if !s[1] {
		t.Error("2→3 should succeed (receiver 3 hears only 2)")
	}
	// 0→1 and 1→2: node 1 cannot transmit and receive at once.
	s = resolve([]int{int(l01), int(l12)})
	if s[0] {
		t.Error("0→1 should fail while 1 transmits")
	}
	// 1→2 alone while 3→2 also fires: two audible senders at 2.
	s = resolve([]int{int(l12), int(l32)})
	if s[0] || s[1] {
		t.Error("colliding transmissions at node 2 succeeded")
	}
}

func TestRadioDuplicatesFail(t *testing.T) {
	g := netgraph.LineNetwork(3, 1)
	m, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	l01, _ := g.FindLink(0, 1)
	resolve, _ := m.NewResolver(1)
	s := resolve([]int{int(l01), int(l01)})
	if s[0] || s[1] {
		t.Error("duplicate radio attempts succeeded")
	}
}

func TestRadioConflictGraphConsistent(t *testing.T) {
	// Whenever two links conflict per the derived graph, transmitting
	// them together must fail at least one of them; when they do not
	// conflict, both must succeed together.
	rng := rand.New(rand.NewSource(321))
	g := netgraph.RandomGeometric(rng, 12, 10, 4)
	if g.NumLinks() < 4 {
		t.Skip("degenerate random graph")
	}
	m, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	cg := m.ConflictGraph()
	n := g.NumLinks()
	resolve, _ := m.NewResolver(1)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s := resolve([]int{a, b})
			bothOK := s[0] && s[1]
			if cg.Conflicts(a, b) && bothOK {
				t.Fatalf("links %d,%d conflict per graph but both succeeded", a, b)
			}
			if !cg.Conflicts(a, b) && !bothOK {
				t.Fatalf("links %d,%d independent per graph but failed together", a, b)
			}
		}
	}
}

func TestRadioSchedulableByDecay(t *testing.T) {
	// The Theorem 19 algorithm must clear a batch under radio semantics.
	g := netgraph.GridNetwork(3, 3, 1)
	m, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []static.Request
	for e := 0; e < g.NumLinks(); e++ {
		for k := 0; k < 3; k++ {
			reqs = append(reqs, static.Request{Link: e, Tag: int64(e*10 + k)})
		}
	}
	rng := rand.New(rand.NewSource(322))
	meas := static.RequestMeasure(m, reqs)
	res := static.Run(rng, m, static.Decay{}, reqs, 64*static.Decay{}.Budget(g.NumLinks(), meas, len(reqs)))
	if !res.AllServed() {
		t.Fatalf("decay served %d/%d under radio semantics in %d slots",
			res.NumServed(), len(reqs), res.Slots)
	}
}
