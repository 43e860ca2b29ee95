package interference

import (
	"fmt"
	"math/rand"
	"sync"

	"dynsched/internal/randx"
)

// Identity is the packet-routing model: W is the identity matrix, so the
// interference measure equals the congestion, and a transmission succeeds
// whenever its link carries a single packet this slot (links do not
// interfere with each other at all).
type Identity struct {
	Links int
}

var _ Model = Identity{}

// Name implements Model.
func (Identity) Name() string { return "identity" }

// NumLinks implements Model.
func (m Identity) NumLinks() int { return m.Links }

// Weight implements Model.
func (m Identity) Weight(e, e2 int) float64 {
	if e == e2 {
		return 1
	}
	return 0
}

// WeightRows implements RowsProvider: the identity matrix in CSR form.
func (m Identity) WeightRows() *Sparse { return SparseDiag(m.Links) }

// NewResolver implements Model: serial, whatever workers asks.
func (m Identity) NewResolver(int) (func(tx []int) []bool, func() ResolveStats) {
	s := NewResolverScratch(m.Links)
	return func(tx []int) []bool {
		out := s.Begin(tx)
		for i, e := range tx {
			out[i] = s.Counts[e] == 1
		}
		s.End(tx)
		return out
	}, SerialStats
}

// AllOnes is the multiple-access-channel model: every entry of W is 1, so
// the interference measure is the total number of packets, and a
// transmission succeeds only when it is the sole transmission in the
// network this slot.
type AllOnes struct {
	Links int
}

var _ Model = AllOnes{}

// Name implements Model.
func (AllOnes) Name() string { return "multiple-access-channel" }

// NumLinks implements Model.
func (m AllOnes) NumLinks() int { return m.Links }

// Weight implements Model.
func (m AllOnes) Weight(e, e2 int) float64 { return 1 }

// NewResolver implements Model: serial, whatever workers asks.
// (AllOnes deliberately does not implement RowsProvider: its matrix is
// fully dense, and Measure special-cases it to the total request count
// instead.)
func (m AllOnes) NewResolver(int) (func(tx []int) []bool, func() ResolveStats) {
	s := NewResolverScratch(m.Links)
	return func(tx []int) []bool {
		out := s.Begin(tx)
		if len(tx) == 1 {
			out[0] = true
		}
		s.End(tx)
		return out
	}, SerialStats
}

// Dense is an explicit weight matrix with threshold transmission
// semantics: a transmission on e succeeds when e carries one packet and
// the summed weight of all other simultaneous transmissions at e stays
// below 1. It serves as a generic Model for tests and for models whose
// W is computed up front.
type Dense struct {
	name string
	w    [][]float64

	rowsMu sync.Mutex
	rows   *Sparse // CSR cache, invalidated by Set, guarded by rowsMu
}

var _ Model = (*Dense)(nil)

// NewDense creates an n×n matrix model with unit diagonal, zero
// off-diagonal weights.
func NewDense(name string, n int) *Dense {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		w[i][i] = 1
	}
	return &Dense{name: name, w: w}
}

// Set assigns W[e][e2]. It returns an error for out-of-range indices,
// values outside [0,1], or attempts to change the unit diagonal.
func (d *Dense) Set(e, e2 int, v float64) error {
	n := len(d.w)
	if e < 0 || e >= n || e2 < 0 || e2 >= n {
		return fmt.Errorf("interference: index (%d,%d) out of range [0,%d)", e, e2, n)
	}
	if v < 0 || v > 1 {
		return fmt.Errorf("interference: weight %v outside [0,1]", v)
	}
	if e == e2 && v != 1 {
		return fmt.Errorf("interference: diagonal W[%d][%d] must stay 1", e, e2)
	}
	d.w[e][e2] = v
	d.rowsMu.Lock()
	d.rows = nil
	d.rowsMu.Unlock()
	return nil
}

// WeightRows implements RowsProvider. The CSR form is built on first
// use and cached until the next Set; the cache is mutex-guarded so
// concurrent readers (parallel shards sharing an immutable Dense) are
// safe. Set itself must still not race with readers.
func (d *Dense) WeightRows() *Sparse {
	d.rowsMu.Lock()
	defer d.rowsMu.Unlock()
	if d.rows == nil {
		d.rows = SparseFromWeights(len(d.w), 1, func(e, e2 int) float64 { return d.w[e][e2] })
	}
	return d.rows
}

// Name implements Model.
func (d *Dense) Name() string { return d.name }

// NumLinks implements Model.
func (d *Dense) NumLinks() int { return len(d.w) }

// Weight implements Model.
func (d *Dense) Weight(e, e2 int) float64 { return d.w[e][e2] }

// NewResolver implements Model: serial, whatever workers asks.
func (d *Dense) NewResolver(int) (func(tx []int) []bool, func() ResolveStats) {
	s := NewResolverScratch(len(d.w))
	return func(tx []int) []bool {
		out := s.Begin(tx)
		for i, e := range tx {
			if s.Counts[e] != 1 {
				continue
			}
			sum := 0.0
			for _, e2 := range tx {
				if e2 != e {
					sum += d.w[e][e2]
				}
			}
			out[i] = sum < 1
		}
		s.End(tx)
		return out
	}, SerialStats
}

// Lossy wraps a model and drops each otherwise-successful transmission
// independently with probability P — the "trivial extension" to
// unreliable networks sketched in Section 9 of the paper. The random
// source is supplied per call to keep the model deterministic under
// seeded runs.
type Lossy struct {
	Inner Model
	P     float64
	// Rand returns a uniform float64 in [0,1); typically rng.Float64.
	Rand func() float64
	// Src, when set, is the draw-counting source behind Rand; it makes
	// the model checkpointable (see checkpoint.go). Construct with
	// NewLossy to get both wired consistently.
	Src *randx.CountingSource
}

// NewLossy builds a lossy wrapper whose drop decisions draw from a
// private draw-counted RNG seeded with seed, making the model
// checkpointable. The stream is identical to
// rand.New(rand.NewSource(seed)).Float64.
func NewLossy(inner Model, p float64, seed int64) *Lossy {
	src := randx.NewCounting(seed)
	return &Lossy{Inner: inner, P: p, Rand: rand.New(src).Float64, Src: src}
}

var _ Model = (*Lossy)(nil)

// Name implements Model.
func (l *Lossy) Name() string { return fmt.Sprintf("lossy(%s,p=%.2f)", l.Inner.Name(), l.P) }

// NumLinks implements Model.
func (l *Lossy) NumLinks() int { return l.Inner.NumLinks() }

// Weight implements Model.
func (l *Lossy) Weight(e, e2 int) float64 { return l.Inner.Weight(e, e2) }

// NewResolver implements Model by wrapping the inner model's resolver,
// and its accounting, with the loss overlay: the hot loop inherits the
// inner model's allocation-free resolution. The overlay itself is a
// serial O(len(tx)) pass in slot order — its draw order is part of the
// model's determinism contract.
func (l *Lossy) NewResolver(workers int) (func(tx []int) []bool, func() ResolveStats) {
	inner, stats := l.Inner.NewResolver(workers)
	return func(tx []int) []bool {
		out := inner(tx)
		for i, ok := range out {
			if ok && l.Rand() < l.P {
				out[i] = false
			}
		}
		return out
	}, stats
}

// ResolveStats implements ResolveStatsProvider by delegation.
func (l *Lossy) ResolveStats() ResolveStats {
	if sp, ok := l.Inner.(ResolveStatsProvider); ok {
		return sp.ResolveStats()
	}
	return ResolveStats{Workers: 1}
}
