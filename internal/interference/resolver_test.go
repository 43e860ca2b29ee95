package interference_test

import (
	"math/rand"
	"testing"

	"dynsched/internal/conflict"
	"dynsched/internal/interference"
	"dynsched/internal/lowerbound"
	"dynsched/internal/netgraph"
	"dynsched/internal/radio"
	"dynsched/internal/sinr"
)

// resolverKind builds one model kind. Every call returns an equal,
// independent model: lossy kinds draw from their own RNG at the same
// seed, so two builds consume identical loss streams.
type resolverKind struct {
	name  string
	build func(t *testing.T) interference.Model
}

// resolverKinds lists every model kind the engine resolves slots
// through, on small seeded networks.
func resolverKinds() []resolverKind {
	fixedPower := func(opt sinr.Options) func(t *testing.T) interference.Model {
		return func(t *testing.T) interference.Model {
			g := netgraph.RandomPairs(rand.New(rand.NewSource(5)), 64, 60, 1, 4)
			prm := sinr.DefaultParams()
			powers, err := sinr.Powers(g, prm, sinr.PowerUniform, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sinr.NewFixedPowerOpts(g, prm, powers, sinr.WeightMonotone, opt)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	return []resolverKind{
		{"identity", func(*testing.T) interference.Model { return interference.Identity{Links: 48} }},
		{"mac", func(*testing.T) interference.Model { return interference.AllOnes{Links: 48} }},
		{"dense", func(t *testing.T) interference.Model {
			rng := rand.New(rand.NewSource(6))
			d := interference.NewDense("dense", 48)
			for e := 0; e < 48; e++ {
				for e2 := 0; e2 < 48; e2++ {
					if e != e2 && rng.Intn(4) == 0 {
						if err := d.Set(e, e2, 0.4*rng.Float64()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			return d
		}},
		{"conflict", func(t *testing.T) interference.Model {
			rng := rand.New(rand.NewSource(7))
			cg := conflict.NewGraph(48)
			for e := 0; e < 48; e++ {
				for e2 := e + 1; e2 < 48; e2++ {
					if rng.Intn(12) == 0 {
						if err := cg.AddConflict(e, e2); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			m, err := conflict.NewModel(cg, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"radio", func(t *testing.T) interference.Model {
			m, err := radio.New(netgraph.GridNetwork(4, 4, 1))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"figure1", func(*testing.T) interference.Model { return lowerbound.Model{M: 16} }},
		{"lossy", func(*testing.T) interference.Model {
			return interference.NewLossy(interference.Identity{Links: 48}, 0.3, 8)
		}},
		{"fixed-power-table", fixedPower(sinr.Options{})},
		{"fixed-power-indexed", fixedPower(sinr.Options{Backing: sinr.BackIndexed})},
		{"fixed-power-indexed-eps", fixedPower(sinr.Options{Backing: sinr.BackIndexed, FarFloor: 0.02})},
		{"power-control", func(t *testing.T) interference.Model {
			g := netgraph.RandomPairs(rand.New(rand.NewSource(9)), 32, 120, 1, 3)
			m, err := sinr.NewPowerControl(g, sinr.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
}

// randomSlots draws count transmission sets over n links: empty slots,
// sets of distinct links, draws with repeated links, and edits of the
// previous slot — the small changes a reused indexed resolver serves
// by a grid delta update.
func randomSlots(rng *rand.Rand, n, count int) [][]int {
	slots := make([][]int, count)
	var prev []int
	for i := range slots {
		var tx []int
		switch {
		case len(prev) > 0 && rng.Intn(2) == 0:
			tx = append(tx, prev...)
			for j := 0; j <= len(tx)/4; j++ {
				tx[rng.Intn(len(tx))] = rng.Intn(n)
			}
		case rng.Intn(2) == 0:
			tx = append(tx, rng.Perm(n)[:rng.Intn(n+1)]...)
		default:
			tx = make([]int, rng.Intn(n/2+1))
			for j := range tx {
				tx[j] = rng.Intn(n)
			}
		}
		slots[i], prev = tx, tx
	}
	return slots
}

// TestFreshResolverMatchesReused: a resolver keeps its buffers — and,
// on the indexed SINR backing, its spatial grid — from one slot to the
// next. Over 500 seeded random slots, one reused resolver at workers 1
// and 4 must return, for every model kind, the verdicts of a fresh
// serial resolver built for each slot.
func TestFreshResolverMatchesReused(t *testing.T) {
	for _, k := range resolverKinds() {
		t.Run(k.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				fresh, reused := k.build(t), k.build(t)
				resolve, _ := reused.NewResolver(workers)
				rng := rand.New(rand.NewSource(25))
				for s, tx := range randomSlots(rng, reused.NumLinks(), 500) {
					freshResolve, _ := fresh.NewResolver(1)
					want := freshResolve(tx)
					got := resolve(tx)
					if len(got) != len(tx) {
						t.Fatalf("workers %d slot %d: %d verdicts for %d transmissions", workers, s, len(got), len(tx))
					}
					for i := range tx {
						if got[i] != want[i] {
							t.Fatalf("workers %d slot %d: tx %v: reused %v, fresh %v", workers, s, tx, got, want)
						}
					}
				}
			}
		})
	}
}
