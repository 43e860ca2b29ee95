package sinr

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// csrSnapshot flattens a CSR matrix into comparable row pointers,
// columns and value bit patterns.
type csrSnapshot struct {
	rowPtr []int
	cols   []int32
	bits   []uint64
}

func snapshotCSR(s *interference.Sparse) csrSnapshot {
	var c csrSnapshot
	c.rowPtr = append(c.rowPtr, 0)
	for e := 0; e < s.NumLinks(); e++ {
		cols, vals := s.Row(e)
		c.cols = append(c.cols, cols...)
		for _, v := range vals {
			c.bits = append(c.bits, math.Float64bits(v))
		}
		c.rowPtr = append(c.rowPtr, len(c.cols))
	}
	return c
}

// snapshotTable flattens a cross table (dense or CSR) the same way; a
// nil table (the indexed backing stores none) snapshots empty.
func snapshotTable(t *crossTable) csrSnapshot {
	if t == nil {
		return csrSnapshot{}
	}
	if t.rows != nil {
		return snapshotCSR(t.rows)
	}
	var c csrSnapshot
	for _, v := range t.dense {
		c.bits = append(c.bits, math.Float64bits(v))
	}
	return c
}

func requireSameSnapshot(t *testing.T, what string, workers int, got, want csrSnapshot) {
	t.Helper()
	if len(got.rowPtr) != len(want.rowPtr) || len(got.cols) != len(want.cols) || len(got.bits) != len(want.bits) {
		t.Fatalf("%s at Parallelism=%d: shape %d/%d/%d, serial %d/%d/%d", what, workers,
			len(got.rowPtr), len(got.cols), len(got.bits), len(want.rowPtr), len(want.cols), len(want.bits))
	}
	for i := range got.rowPtr {
		if got.rowPtr[i] != want.rowPtr[i] {
			t.Fatalf("%s at Parallelism=%d: rowPtr[%d] = %d, serial %d", what, workers, i, got.rowPtr[i], want.rowPtr[i])
		}
	}
	for i := range got.cols {
		if got.cols[i] != want.cols[i] {
			t.Fatalf("%s at Parallelism=%d: cols[%d] = %d, serial %d", what, workers, i, got.cols[i], want.cols[i])
		}
	}
	for i := range got.bits {
		if got.bits[i] != want.bits[i] {
			t.Fatalf("%s at Parallelism=%d: value %d = %x, serial %x", what, workers, i, got.bits[i], want.bits[i])
		}
	}
}

// TestConstructionBitIdenticalAcrossWorkers builds every construction
// path — the dense and CSR cross tables, the exact indexed build, the
// floor-sparse indexed build, and power control — at construction
// worker counts {1, 2, 4} (Options.Parallelism) and requires identical
// CSR arrays and gain tables. The instance spans several assembler row
// blocks, so the parallel stitching is exercised.
func TestConstructionBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(219))
	g := netgraph.RandomPairs(rng, 3*256+40, 400, 1, 4)
	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm.Noise = MaxNoise(g, prm, powers, 0.5)

	type snapshot struct{ table, weights csrSnapshot }
	fixed := func(kind WeightKind) func(Options) (snapshot, error) {
		return func(opt Options) (snapshot, error) {
			m, err := NewFixedPowerOpts(g, prm, powers, kind, opt)
			if err != nil {
				return snapshot{}, err
			}
			return snapshot{snapshotTable(m.gain), snapshotCSR(m.WeightRows())}, nil
		}
	}
	powerControl := func(opt Options) (snapshot, error) {
		m, err := NewPowerControlOpts(g, DefaultParams(), opt)
		if err != nil {
			return snapshot{}, err
		}
		return snapshot{snapshotTable(m.cross), snapshotCSR(m.WeightRows())}, nil
	}
	for _, c := range []struct {
		name  string
		opt   Options
		build func(Options) (snapshot, error)
	}{
		{"dense-table", Options{}, fixed(WeightAffectance)},
		{"csr-table", Options{DenseMaxLinks: 64}, fixed(WeightMonotone)},
		{"indexed-exact", indexedOpts(0), fixed(WeightAffectance)},
		{"indexed-floor", indexedOpts(0.05), fixed(WeightMonotone)},
		{"power-control-table", Options{}, powerControl},
		{"power-control-floor", indexedOpts(0.05), powerControl},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want snapshot
			for _, workers := range []int{1, 2, 4} {
				opt := c.opt
				opt.Parallelism = workers
				got, err := c.build(opt)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					want = got
					if len(want.weights.cols) == 0 {
						t.Fatal("empty weight matrix")
					}
					continue
				}
				requireSameSnapshot(t, "gain table", workers, got.table, want.table)
				requireSameSnapshot(t, "weight CSR", workers, got.weights, want.weights)
			}
		})
	}
}
