package sinr

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// lowerParallelThresholds drops the parallel fan-out thresholds so the
// concurrent paths engage on test-sized inputs, restoring them on
// cleanup.
func lowerParallelThresholds(t *testing.T) {
	t.Helper()
	minTx, minRows, minIter := parallelMinTx, parallelMinRows, parallelMinIterRows
	parallelMinTx, parallelMinRows, parallelMinIterRows = 8, 8, 8
	t.Cleanup(func() {
		parallelMinTx, parallelMinRows, parallelMinIterRows = minTx, minRows, minIter
	})
}

// resolverWorkerCounts is the worker-count sweep every parallel
// bit-identity test runs: serial, small, typical, and whatever this
// machine would auto-select.
func resolverWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

// randomTxSlots draws count transmission sets of varying size over n
// links, reusing the generator so consecutive sets overlap the way a
// protocol's frames do.
func randomTxSlots(rng *rand.Rand, n, count int) [][]int {
	slots := make([][]int, count)
	for i := range slots {
		k := 1 + rng.Intn(n)
		slots[i] = append([]int(nil), rng.Perm(n)[:k]...)
	}
	return slots
}

// TestFixedPowerParallelBitIdentity: the fixed-power resolver returns
// byte-identical success vectors at every worker count, on the dense
// table, the exact indexed (ε = 0), and the far-floor indexed (ε > 0)
// backings.
func TestFixedPowerParallelBitIdentity(t *testing.T) {
	lowerParallelThresholds(t)
	prm := DefaultParams()
	rng := rand.New(rand.NewSource(211))
	g := netgraph.RandomPairs(rng, 96, 120, 1, 4)
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm.Noise = MaxNoise(g, prm, powers, 0.5)
	for _, bc := range []struct {
		name string
		opt  Options
	}{
		{"table", Options{}},
		{"indexed-exact", indexedOpts(0)},
		{"indexed-floor", indexedOpts(0.05)},
	} {
		t.Run(bc.name, func(t *testing.T) {
			m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, bc.opt)
			if err != nil {
				t.Fatal(err)
			}
			slots := randomTxSlots(rand.New(rand.NewSource(212)), g.NumLinks(), 60)
			serial, _ := m.NewResolver(1)
			want := make([][]bool, len(slots))
			for i, tx := range slots {
				want[i] = append([]bool(nil), serial(tx)...)
			}
			for _, workers := range resolverWorkerCounts() {
				resolve, _ := m.NewResolver(workers)
				for i, tx := range slots {
					got := resolve(tx)
					for j := range got {
						if got[j] != want[i][j] {
							t.Fatalf("workers=%d slot %d link %d: got %v, serial %v",
								workers, i, tx[j], got[j], want[i][j])
						}
					}
				}
			}
		})
	}
}

// TestPowerControlParallelBitIdentity: the power-control resolver —
// gain rows, fixed-point iterations, and shedding — returns identical
// success vectors at every worker count.
func TestPowerControlParallelBitIdentity(t *testing.T) {
	lowerParallelThresholds(t)
	rng := rand.New(rand.NewSource(213))
	g := netgraph.RandomPairs(rng, 64, 90, 1, 4)
	m, err := NewPowerControlOpts(g, DefaultParams(), indexedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	slots := randomTxSlots(rand.New(rand.NewSource(214)), g.NumLinks(), 40)
	serial, _ := m.NewResolver(1)
	want := make([][]bool, len(slots))
	for i, tx := range slots {
		want[i] = append([]bool(nil), serial(tx)...)
	}
	for _, workers := range resolverWorkerCounts() {
		resolve, _ := m.NewResolver(workers)
		for i, tx := range slots {
			got := resolve(tx)
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("workers=%d slot %d link %d: got %v, serial %v",
						workers, i, tx[j], got[j], want[i][j])
				}
			}
		}
	}
}

// TestGridDeltaPathMatchesRebuild drives one resolver through slot
// sequences with small joined/left deltas — the shape the incremental
// grid update targets — and checks both that the delta path actually
// engaged and that its results match a fresh model resolving the same
// slots with rebuilt grids.
func TestGridDeltaPathMatchesRebuild(t *testing.T) {
	prm := DefaultParams()
	rng := rand.New(rand.NewSource(215))
	g := netgraph.RandomPairs(rng, 256, 200, 1, 4)
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm.Noise = MaxNoise(g, prm, powers, 0.5)
	m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, indexedOpts(0.05))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, indexedOpts(0.05))
	if err != nil {
		t.Fatal(err)
	}

	// Evolve one base selection by a handful of joins/leaves per slot.
	n := g.NumLinks()
	members := map[int]bool{}
	for _, e := range rng.Perm(n)[:128] {
		members[e] = true
	}
	resolve, _ := m.NewResolver(1)
	for slot := 0; slot < 50; slot++ {
		for i := 0; i < 6; i++ {
			e := rng.Intn(n)
			members[e] = !members[e]
		}
		tx := make([]int, 0, len(members))
		for e, in := range members {
			if in {
				tx = append(tx, e)
			}
		}
		got := resolve(tx)
		freshResolve, _ := fresh.NewResolver(1) // fresh resolver: rebuilt grid every slot
		want := freshResolve(tx)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("slot %d link %d: delta path %v, rebuild %v", slot, tx[j], got[j], want[j])
			}
		}
	}
	st := m.ResolveStats()
	if st.GridDeltaUpdates == 0 {
		t.Fatalf("delta path never engaged: stats %+v", st)
	}
	if fst := fresh.ResolveStats(); fst.GridDeltaUpdates != 0 {
		t.Fatalf("fresh-resolver control unexpectedly delta-updated: stats %+v", fst)
	}
}

// TestResolverCountsItsOwnSlots pins the per-run grid accounting:
// two resolvers interleaving slots on one model each report exactly the
// grid work a lone resolver on a fresh model does for their slots, and
// the model's cumulative totals are their sum.
func TestResolverCountsItsOwnSlots(t *testing.T) {
	prm := DefaultParams()
	rng := rand.New(rand.NewSource(217))
	g := netgraph.RandomPairs(rng, 256, 200, 1, 4)
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm.Noise = MaxNoise(g, prm, powers, 0.5)
	build := func() *FixedPower {
		m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, indexedOpts(0.05))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Two slot streams: a slowly evolving selection (mostly delta
	// updates) and independent random selections (mostly rebuilds).
	n := g.NumLinks()
	var streams [2][][]int
	members := map[int]bool{}
	for _, e := range rng.Perm(n)[:128] {
		members[e] = true
	}
	for slot := 0; slot < 40; slot++ {
		for i := 0; i < 6; i++ {
			e := rng.Intn(n)
			members[e] = !members[e]
		}
		var tx []int
		for e := 0; e < n; e++ {
			if members[e] {
				tx = append(tx, e)
			}
		}
		streams[0] = append(streams[0], tx)
		streams[1] = append(streams[1], rng.Perm(n)[:64+rng.Intn(64)])
	}

	shared := build()
	var resolve [2]func([]int) []bool
	var stats [2]func() interference.ResolveStats
	for i := range resolve {
		resolve[i], stats[i] = shared.NewResolver(1)
	}
	for slot := range streams[0] {
		for i := range resolve {
			resolve[i](streams[i][slot])
		}
	}
	var sum interference.ResolveStats
	for i, stream := range streams {
		solo, soloStats := build().NewResolver(1)
		for _, tx := range stream {
			solo(tx)
		}
		got, want := stats[i](), soloStats()
		if got != want {
			t.Errorf("stream %d on a shared model: %+v, alone on a fresh one: %+v", i, got, want)
		}
		sum.GridRebuilds += got.GridRebuilds
		sum.GridDeltaUpdates += got.GridDeltaUpdates
	}
	if sum.GridDeltaUpdates == 0 || sum.GridRebuilds == 0 {
		t.Fatalf("streams exercised only one grid path: %+v", sum)
	}
	if st := shared.ResolveStats(); st.GridRebuilds != sum.GridRebuilds || st.GridDeltaUpdates != sum.GridDeltaUpdates {
		t.Errorf("model totals %+v, want the resolvers' sum %+v", st, sum)
	}
}

// TestParallelPoolStress hammers the shared worker pool from many
// resolvers on many goroutines at once. Its job is to give the race
// detector something to chew on (go test -race) and to verify results
// stay correct under contention for parked workers.
func TestParallelPoolStress(t *testing.T) {
	lowerParallelThresholds(t)
	prm := DefaultParams()
	rng := rand.New(rand.NewSource(216))
	g := netgraph.RandomPairs(rng, 64, 90, 1, 4)
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm.Noise = MaxNoise(g, prm, powers, 0.5)
	m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, indexedOpts(0.05))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPowerControlOpts(g, DefaultParams(), indexedOpts(0))
	if err != nil {
		t.Fatal(err)
	}

	slots := randomTxSlots(rand.New(rand.NewSource(217)), g.NumLinks(), 20)
	wantFP := make([][]bool, len(slots))
	wantPC := make([][]bool, len(slots))
	fpSerial, _ := m.NewResolver(1)
	pcSerial, _ := pc.NewResolver(1)
	for i, tx := range slots {
		wantFP[i] = append([]bool(nil), fpSerial(tx)...)
		wantPC[i] = append([]bool(nil), pcSerial(tx)...)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Mixed worker counts so sends race for parked workers.
			fp, _ := m.NewResolver(2 + id%3)
			pcr, _ := pc.NewResolver(2 + (id+1)%3)
			for round := 0; round < 8; round++ {
				for i, tx := range slots {
					for j, ok := range fp(tx) {
						if ok != wantFP[i][j] {
							errs <- "fixed-power result diverged under pool contention"
							return
						}
					}
					for j, ok := range pcr(tx) {
						if ok != wantPC[i][j] {
							errs <- "power-control result diverged under pool contention"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
