package interference_test

import (
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/lowerbound"
	"dynsched/internal/netgraph"
	"dynsched/internal/radio"
	"dynsched/internal/testenv"
)

// assertZeroAllocResolver pins the zero-steady-state-allocation
// guarantee of a model's slot resolver: after one warm-up call, slot
// resolution must not touch the heap.
func assertZeroAllocResolver(t *testing.T, m interference.Model, tx []int) {
	t.Helper()
	testenv.SkipIfRace(t)
	resolve, _ := m.NewResolver(0)
	resolve(tx) // warm the reusable buffers
	if got := testing.AllocsPerRun(200, func() { resolve(tx) }); got != 0 {
		t.Errorf("%s resolver: %v allocs per slot, want 0", m.Name(), got)
	}
}

func TestIdentityResolverZeroAllocs(t *testing.T) {
	m := interference.Identity{Links: 64}
	tx := []int{0, 4, 8, 12, 16, 20, 24, 28, 3, 3}
	assertZeroAllocResolver(t, m, tx)
}

func TestAllOnesResolverZeroAllocs(t *testing.T) {
	m := interference.AllOnes{Links: 16}
	assertZeroAllocResolver(t, m, []int{3})
	assertZeroAllocResolver(t, m, []int{1, 2, 3})
}

func TestDenseResolverZeroAllocs(t *testing.T) {
	d := interference.NewDense("dense-test", 16)
	for e := 0; e < 16; e++ {
		for e2 := 0; e2 < 16; e2++ {
			if e != e2 {
				if err := d.Set(e, e2, 0.01); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	assertZeroAllocResolver(t, d, []int{0, 3, 7, 11, 15})
}

func TestLossyResolverZeroAllocs(t *testing.T) {
	m := interference.NewLossy(interference.Identity{Links: 64}, 0.3, 1)
	assertZeroAllocResolver(t, m, []int{0, 4, 8, 12, 16, 20, 24, 28, 3, 3})
}

// TestRadioResolverZeroAllocs covers E12's 4×4 grid: the per-node
// sender loads are reused, not rebuilt per slot.
func TestRadioResolverZeroAllocs(t *testing.T) {
	g := netgraph.GridNetwork(4, 4, 1)
	m, err := radio.New(g)
	if err != nil {
		t.Fatal(err)
	}
	var tx []int
	for e := 0; e < g.NumLinks(); e += 5 {
		tx = append(tx, e)
	}
	assertZeroAllocResolver(t, m, append(tx, tx[0]))
}

func TestFigure1ResolverZeroAllocs(t *testing.T) {
	m := lowerbound.Model{M: 16}
	assertZeroAllocResolver(t, m, []int{0, 3, 7, 7, 15})
	assertZeroAllocResolver(t, m, []int{15})
}
