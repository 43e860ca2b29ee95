package sinr

import (
	"math"
	"slices"
	"sync"

	"dynsched/internal/geom"
	"dynsched/internal/interference"
)

// Floor-sparse analysis-matrix construction for the indexed backing.
//
// The weight matrices of Sections 6.1/6.2 are dense in principle, but in
// a fading metric (α above the plane's doubling dimension, Corollary 14)
// almost all entries are negligible: the affectance of a link decays
// like d^{-α} in the cross distance. With a contribution floor ε > 0 the
// indexed backing therefore stores only the entries that can reach ε.
// For every row a conservative candidate radius is derived from the
// floor — any pair beyond it is provably below ε — the candidates are
// collected from a static spatial index in O(local density), evaluated
// with exactly the same floating-point expression as the dense build,
// and kept when they reach the floor. Construction costs O(n + nnz)
// index work instead of O(n²) pair evaluations. Each row borrows its
// candidate and ring buffers from a per-build pool, so the scratch is
// allocated once per worker rather than once per row.

// floorScratch is one row's candidate list and Within ring buffer.
type floorScratch struct{ cand, ring []int32 }

// newFloorScratchPool returns the scratch pool of one floor-sparse build.
func newFloorScratchPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(floorScratch) }}
}

// buildWeightsFloorSparse constructs the fixed-power analysis matrix
// with entries below the contribution floor dropped. Rows whose SINR
// margin is non-positive make every affectance 1 and admit no radius
// cutoff; such degenerate instances fall back to the exact dense build.
func (m *FixedPower) buildWeightsFloorSparse() {
	n := m.g.NumLinks()
	eps := m.opts.FarFloor
	alpha, beta := m.prm.Alpha, m.prm.Beta
	betaNoise := beta * m.prm.Noise
	minMargin := math.Inf(1)
	for e := 0; e < n; e++ {
		if mg := m.signals[e] - betaNoise; mg < minMargin {
			minMargin = mg
		}
	}
	if !(minMargin > 0) {
		// A non-positive margin saturates whole rows at affectance 1:
		// no floor radius exists, so build exactly.
		m.buildWeightsExact()
		return
	}
	senderIdx := geom.NewGridIndex(m.sendPos, m.opts.CellSize)
	var recvIdx *geom.GridIndex
	if m.kind == WeightMonotone {
		recvIdx = geom.NewGridIndex(m.recvPos, m.opts.CellSize)
	}
	invAlpha := 1 / alpha
	pool := newFloorScratchPool()
	m.w = nil
	m.rows = interference.SparseFromRows(n, m.opts.workers(n), func(e int, emit func(int32, float64)) {
		sc := pool.Get().(*floorScratch)
		margin := m.signals[e] - betaNoise
		// a_p(e2 → e) ≥ ε needs gain ≥ ε·margin/β, i.e. the interfering
		// sender within rFwd of e's receiver (pmax bounds its power).
		rFwd := math.Pow(beta*m.pmax/(eps*margin), invAlpha)
		cand, ring := senderIdx.Within(m.recvPos[e], rFwd, m.sendPos, sc.cand[:0], sc.ring)
		if m.kind == WeightMonotone {
			// The reverse term a_p(e → e2) is evaluated against e2's
			// margin; minMargin gives the conservative shared radius for
			// e's fixed transmit power.
			rRev := math.Pow(beta*m.powers[e]/(eps*minMargin), invAlpha)
			cand, ring = recvIdx.Within(m.sendPos[e], rRev, m.recvPos, cand, ring)
		}
		cand = append(cand, int32(e)) // the unit diagonal is always stored
		slices.Sort(cand)
		prev := int32(-1)
		for _, c := range cand {
			if c == prev {
				continue
			}
			prev = c
			e2 := int(c)
			if e2 == e {
				emit(c, 1)
				continue
			}
			var v float64
			switch m.kind {
			case WeightAffectance:
				v = affectanceFromGain(m.gainAt(e, e2), m.signals[e], betaNoise, beta)
			case WeightMonotone:
				if m.lens[e] <= m.lens[e2] {
					a1 := affectanceFromGain(m.gainAt(e2, e), m.signals[e2], betaNoise, beta)
					a2 := affectanceFromGain(m.gainAt(e, e2), m.signals[e], betaNoise, beta)
					v = math.Max(a1, a2)
				}
			}
			if v >= eps {
				emit(c, v)
			}
		}
		sc.cand, sc.ring = cand, ring
		pool.Put(sc)
	})
}

// buildWeightsFloorSparse constructs the power-control distance-ratio
// matrix with entries below the contribution floor dropped. An entry
// dOwn/cp1 + dOwn/cp2 reaches ε only if one term reaches ε/2, which
// bounds both cross distances by d(ℓ)·(2/ε)^{1/α} — the candidate
// radius served by the static sender and receiver indexes.
func (m *PowerControl) buildWeightsFloorSparse() {
	n := m.g.NumLinks()
	eps := m.opts.FarFloor
	alpha := m.prm.Alpha
	senderIdx := geom.NewGridIndex(m.sendPos, m.opts.CellSize)
	recvIdx := geom.NewGridIndex(m.recvPos, m.opts.CellSize)
	scale := math.Pow(2/eps, 1/alpha)
	pool := newFloorScratchPool()
	m.w = nil
	m.rows = interference.SparseFromRows(n, m.opts.workers(n), func(e int, emit func(int32, float64)) {
		sc := pool.Get().(*floorScratch)
		radius := m.lens[e] * scale
		cand, ring := senderIdx.Within(m.recvPos[e], radius, m.sendPos, sc.cand[:0], sc.ring)
		cand, ring = recvIdx.Within(m.sendPos[e], radius, m.recvPos, cand, ring)
		cand = append(cand, int32(e))
		slices.Sort(cand)
		dOwn := m.lenAlpha[e]
		prev := int32(-1)
		for _, c := range cand {
			if c == prev {
				continue
			}
			prev = c
			e2 := int(c)
			if e2 == e {
				emit(c, 1)
				continue
			}
			if m.lens[e] > m.lens[e2] {
				continue // charged to the shorter link only
			}
			v := 0.0
			if cp := m.crossAt(e2, e); cp >= 0 {
				v += dOwn / cp
			} else {
				v = 1
			}
			if cp := m.crossAt(e, e2); cp >= 0 {
				v += dOwn / cp
			} else {
				v = 1
			}
			v = math.Min(1, v)
			if v >= eps {
				emit(c, v)
			}
		}
		sc.cand, sc.ring = cand, ring
		pool.Put(sc)
	})
}
