package sinr

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dynsched/internal/geom"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/par"
)

// PowerControl is the SINR model of Section 6.2 in which the protocol may
// choose an individual power for every transmission. Its analysis matrix
// is the distance-ratio construction
//
//	W[ℓ][ℓ'] = min{1, d(ℓ)^α/d(s,r')^α + d(ℓ)^α/d(s',r)^α}   if d(ℓ) ≤ d(ℓ'),
//	W[ℓ][ℓ'] = 0                                              otherwise,
//
// and its physical side decides success by actually solving for a power
// vector: a set S admits powers exactly when the linear system
// p ≥ β(A·p + ν·d^α) has a finite non-negative solution, which the model
// finds by fixed-point iteration (the minimal solution when the spectral
// radius of βA is below one). Links for which no joint power vector
// exists are shed greedily, most-interfered first.
type PowerControl struct {
	g    *netgraph.Graph
	prm  Params
	opts Options
	info TableInfo
	lens []float64
	// lenAlpha[e] = d(ℓ)^α, the per-link path-loss power.
	lenAlpha []float64
	// cross.at(e, e2) = d(s', r)^α for ℓ = e, ℓ' = e2: the α-th power of
	// the cross distance from e2's sender to e's receiver, precomputed so
	// the feasibility solver and the weight build never call math.Pow.
	// A zero cross distance (co-located interferer) is stored as the -1
	// sentinel, since Pow values are otherwise non-negative. Nil under
	// the indexed backing, which evaluates entries on demand — the same
	// operations, so bit-identical values.
	cross *crossTable

	// Indexed-backing state: per-link endpoint positions.
	sendPos []geom.Point
	recvPos []geom.Point

	// The analysis matrix. Table backings build it eagerly; the indexed
	// backing builds it on first use — exact at ε = 0, floor-sparse
	// through the spatial index at ε > 0.
	weightsOnce sync.Once
	w           [][]float64
	rows        *interference.Sparse

	// maxIter and powerCap bound the fixed-point iteration.
	maxIter  int
	powerCap float64

	// scratch pools pcScratch values so SolvePowers stays
	// allocation-free in steady state even on a model shared across
	// goroutines.
	scratch sync.Pool
}

var (
	_ interference.Model        = (*PowerControl)(nil)
	_ interference.RowsProvider = (*PowerControl)(nil)
	_ par.Runner                = (*pcScratch)(nil)
)

// pcScratch phase modes: which row body RunChunks executes.
const (
	pcModeGain = iota
	pcModeIter
	pcModeShed
)

// pcScratch is the reusable buffer set of one feasibility computation:
// slot counting, the candidate set, a per-link served mark, and the
// flat k×k gain system of the fixed-point solver. It doubles as the
// solver's parallel fan-out job (par.Runner): the gain-row build, each
// fixed-point iteration pass, and the shed sums shard across rows with
// per-worker scratch, and the serial early-returns become atomic flags
// checked after the pass — same boolean outcomes, scratch-only
// divergence, so results are bit-identical at every worker count.
type pcScratch struct {
	rs     *interference.ResolverScratch
	set    []int
	served []bool
	gain   []float64 // flat k×k
	noise  []float64
	p      []float64
	next   []float64

	m       *PowerControl
	workers int
	job     par.Job
	mode    int
	curSet  []int
	wcross  [][]float64 // per-worker gathered table rows
	wmax    []float64   // per-worker iteration max-relative-change
	shedSum []float64   // per-candidate symmetrized interference sums
	failed  atomic.Bool // gain build hit a co-located pair
	capped  atomic.Bool // iteration exceeded the power cap
}

// RunChunks implements par.Runner for the solver's active phase.
func (sc *pcScratch) RunChunks(slot int) {
	for {
		lo, hi := sc.job.Claim()
		if lo < 0 {
			return
		}
		switch sc.mode {
		case pcModeGain:
			sc.m.gainRows(sc, slot, lo, hi)
		case pcModeIter:
			sc.m.iterRows(sc, slot, lo, hi)
		default:
			sc.m.shedSums(sc, lo, hi)
		}
	}
}

// ensureWorkerBufs sizes the per-worker scratch slices for the
// resolver's worker count (always at least one slot, for the serial
// path).
func (sc *pcScratch) ensureWorkerBufs() {
	slots := sc.workers
	if slots < 1 {
		slots = 1
	}
	for len(sc.wcross) < slots {
		sc.wcross = append(sc.wcross, nil)
	}
	for len(sc.wmax) < slots {
		sc.wmax = append(sc.wmax, 0)
	}
}

// NewPowerControl builds a power-control SINR model on g with default
// options. The O(n²) cross-distance table and weight matrix are
// precomputed across Options.Parallelism workers (GOMAXPROCS by
// default); the results are bit-identical to the serial per-pair
// evaluation at every worker count.
func NewPowerControl(g *netgraph.Graph, prm Params) (*PowerControl, error) {
	return NewPowerControlOpts(g, prm, Options{})
}

// NewPowerControlOpts is NewPowerControl with explicit storage options.
// Under the indexed backing (which requires planar positions) no cross
// table is materialised — cross distances are evaluated on demand with
// the identical operations, and the analysis matrix is built lazily:
// exactly at FarFloor = 0, floor-sparse through the spatial index
// otherwise. The physical feasibility solve is exact in every backing;
// only the analysis matrix carries the ε envelope.
func NewPowerControlOpts(g *netgraph.Graph, prm Params, opt Options) (*PowerControl, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if !g.HasDistances() {
		return nil, fmt.Errorf("sinr: graph has neither positions nor a metric")
	}
	n := g.NumLinks()
	m := &PowerControl{
		g:        g,
		prm:      prm,
		opts:     opt,
		info:     opt.tableInfo(n),
		lens:     make([]float64, n),
		lenAlpha: make([]float64, n),
		maxIter:  200,
		powerCap: 1e18,
	}
	for i := 0; i < n; i++ {
		m.lens[i] = g.LinkDist(netgraph.LinkID(i))
		if m.lens[i] <= 0 {
			return nil, fmt.Errorf("sinr: link %d has non-positive length", i)
		}
		m.lenAlpha[i] = math.Pow(m.lens[i], prm.Alpha)
	}
	if opt.Backing == BackIndexed {
		if !g.HasPositions() || g.HasMetric() {
			return nil, fmt.Errorf("sinr: the indexed backing requires planar node positions (no metric override)")
		}
		m.sendPos = make([]geom.Point, n)
		m.recvPos = make([]geom.Point, n)
		for e := 0; e < n; e++ {
			l := g.Link(netgraph.LinkID(e))
			m.sendPos[e] = g.Pos(l.From)
			m.recvPos[e] = g.Pos(l.To)
		}
	} else {
		m.cross = buildCrossTable(n, opt, func(at, src int) float64 {
			d := g.SenderReceiverDist(netgraph.LinkID(src), netgraph.LinkID(at))
			if d == 0 {
				return -1 // sentinel: exact zero distance, not an underflowed power
			}
			return math.Pow(d, prm.Alpha)
		})
		m.ensureWeights()
	}
	m.scratch.New = func() any {
		return &pcScratch{
			rs:      interference.NewResolverScratch(n),
			set:     make([]int, 0, n),
			served:  make([]bool, n),
			m:       m,
			workers: opt.workers(n),
		}
	}
	return m, nil
}

// crossAt returns d(s_src, r_at)^α, or the -1 sentinel for an exactly
// zero cross distance: a table read when a table exists, the identical
// formula on demand under the indexed backing.
func (m *PowerControl) crossAt(at, src int) float64 {
	if m.cross != nil {
		return m.cross.at(at, src)
	}
	d := m.sendPos[src].Dist(m.recvPos[at])
	if d == 0 {
		return -1
	}
	return math.Pow(d, m.prm.Alpha)
}

// ensureWeights builds the analysis matrix on first use.
func (m *PowerControl) ensureWeights() {
	m.weightsOnce.Do(func() {
		if m.opts.Backing == BackIndexed && m.opts.FarFloor > 0 {
			m.buildWeightsFloorSparse()
			return
		}
		m.buildWeightsExact()
	})
}

// buildWeightsExact derives the distance-ratio matrix — from the
// precomputed tables when they exist, from the identical on-demand
// evaluation under the indexed backing — fanned across the construction
// workers (Options.Parallelism). Entry for entry it matches the direct
// construction bit for bit.
func (m *PowerControl) buildWeightsExact() {
	n := m.g.NumLinks()
	m.w = make([][]float64, n)
	workers := m.opts.workers(n)
	par.For(context.Background(), n, workers, func(e int) {
		row := make([]float64, n)
		row[e] = 1
		dOwn := m.lenAlpha[e]
		for e2 := 0; e2 < n; e2++ {
			if e == e2 {
				continue
			}
			if m.lens[e] > m.lens[e2] {
				continue // charged to the shorter link only
			}
			// d(s, r')^α with ℓ = e, ℓ' = e2 is crossAt(e2, e); the -1
			// sentinel marks an exactly-zero cross distance.
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
			row[e2] = math.Min(1, v)
		}
		m.w[e] = row
	})
	// The shorter-link-only charging rule zeroes roughly half the matrix;
	// expose the CSR form for O(nnz) measure evaluation.
	m.rows = interference.SparseFromWeights(n, workers, func(e, e2 int) float64 { return m.w[e][e2] })
}

// WeightRows implements interference.RowsProvider.
func (m *PowerControl) WeightRows() *interference.Sparse {
	m.ensureWeights()
	return m.rows
}

// Name implements interference.Model.
func (m *PowerControl) Name() string { return "sinr-power-control" }

// NumLinks implements interference.Model.
func (m *PowerControl) NumLinks() int { return m.g.NumLinks() }

// Weight implements interference.Model.
func (m *PowerControl) Weight(e, e2 int) float64 {
	m.ensureWeights()
	if m.w != nil {
		return m.w[e][e2]
	}
	return m.rows.At(e, e2)
}

// weightAt is Weight for internal hot paths that know the matrix is
// already built.
func (m *PowerControl) weightAt(e, e2 int) float64 {
	if m.w != nil {
		return m.w[e][e2]
	}
	return m.rows.At(e, e2)
}

// Table reports which backing the model resolved to and with which
// knobs — the run-diagnostics record.
func (m *PowerControl) Table() TableInfo { return m.info }

// Graph returns the underlying communication graph.
func (m *PowerControl) Graph() *netgraph.Graph { return m.g }

// Params returns the physical constants.
func (m *PowerControl) Params() Params { return m.prm }

// LinkLen returns the length of link e (shortest-first ordering hook for
// centralized schedulers).
func (m *PowerControl) LinkLen(e int) float64 { return m.lens[e] }

// solveInto runs the fixed-point iteration for set over the scratch
// buffers. On success the minimal solution is left in sc.p (unscaled)
// and the noise terms in sc.noise; the caller decides whether to copy
// them out. No allocations occur once the scratch has grown to the
// working set size. Large systems shard the gain-row build and each
// iteration pass across the worker pool; every row is produced by its
// one claimant with the serial operation sequence, and the convergence
// test reduces per-worker maxima over the same value set, so the
// returned outcome — and the solution on success — are bit-identical
// at every worker count.
func (m *PowerControl) solveInto(sc *pcScratch, set []int) bool {
	k := len(set)
	if k == 0 {
		return true
	}
	growFloats(&sc.gain, k*k)
	growFloats(&sc.noise, k)
	sc.curSet = set
	sc.ensureWorkerBufs()

	// Phase 1: build the gain rows. A co-located pair makes the set
	// unservable; serially that was an early return, in parallel it is
	// a flag checked after the pass — same false outcome either way.
	sc.failed.Store(false)
	if sc.workers > 1 && k >= parallelMinRows {
		sc.mode = pcModeGain
		par.Run(&sc.job, sc, k, sc.workers)
	} else {
		m.gainRows(sc, 0, 0, k)
	}
	if sc.failed.Load() {
		return false
	}

	// Phase 2: fixed-point iteration for the minimal solution of
	// p = β(gain·p + noiseTerm); diverges iff ρ(β·gain) ≥ 1. Each pass
	// reads p and writes disjoint next entries, so rows fan out; the
	// swap and the convergence decision stay serial.
	p := growFloats(&sc.p, k)
	next := growFloats(&sc.next, k)
	for i := range p {
		p[i] = 0
	}
	fanOut := sc.workers > 1 && k >= parallelMinIterRows
	for it := 0; it < m.maxIter; it++ {
		sc.capped.Store(false)
		maxRel := 0.0
		if fanOut {
			for w := range sc.wmax {
				sc.wmax[w] = 0
			}
			sc.mode = pcModeIter
			par.Run(&sc.job, sc, k, sc.workers)
			if sc.capped.Load() {
				return false
			}
			for _, v := range sc.wmax {
				if v > maxRel {
					maxRel = v
				}
			}
		} else {
			sc.wmax[0] = 0
			m.iterRows(sc, 0, 0, k)
			if sc.capped.Load() {
				return false
			}
			maxRel = sc.wmax[0]
		}
		p, next = next, p
		sc.p, sc.next = p, next
		if maxRel < 1e-9 {
			return true
		}
	}
	return false
}

// gainRows fills gain rows [lo, hi): gain[i*k+j] is the normalized
// interference coupling from set[j]'s sender into set[i]'s receiver,
// scaled by set[i]'s own path loss — read straight from the precomputed
// tables (set is ascending, so a CSR backing gathers each row in one
// merge pass), or evaluated on demand under the indexed backing. slot
// selects the worker's private gathered-row buffer.
func (m *PowerControl) gainRows(sc *pcScratch, slot, lo, hi int) {
	set := sc.curSet
	k := len(set)
	nu := m.prm.Noise
	crossRow := growFloats(&sc.wcross[slot], k)
	for i := lo; i < hi; i++ {
		if sc.failed.Load() {
			return
		}
		lenA := m.lenAlpha[set[i]]
		sc.noise[i] = nu * lenA
		row := sc.gain[i*k : (i+1)*k]
		if m.cross != nil {
			m.cross.gather(set[i], set, crossRow)
		} else {
			for j, src := range set {
				crossRow[j] = m.crossAt(set[i], src)
			}
		}
		for j := 0; j < k; j++ {
			if i == j {
				row[j] = 0
				continue
			}
			cp := crossRow[j]
			if cp < 0 {
				sc.failed.Store(true) // co-located interferer: unservable
				return
			}
			row[j] = lenA / cp
		}
	}
}

// iterRows runs one fixed-point pass over rows [lo, hi), accumulating
// the worker's maximum relative change into wmax[slot]. Exceeding the
// power cap sets the capped flag; the whole iteration then reports
// divergence exactly as the serial early return did.
func (m *PowerControl) iterRows(sc *pcScratch, slot, lo, hi int) {
	k := len(sc.curSet)
	beta := m.prm.Beta
	p, next, noiseTerm := sc.p, sc.next, sc.noise
	maxRel := sc.wmax[slot]
	for i := lo; i < hi; i++ {
		if sc.capped.Load() {
			return
		}
		s := noiseTerm[i]
		row := sc.gain[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			s += row[j] * p[j]
		}
		v := beta * s
		next[i] = v
		if v > m.powerCap {
			sc.capped.Store(true)
			return
		}
		den := math.Max(v, 1e-300)
		rel := math.Abs(v-p[i]) / den
		if rel > maxRel {
			maxRel = rel
		}
	}
	sc.wmax[slot] = maxRel
}

// growFloats resizes *buf to n entries, reallocating only when the
// capacity is insufficient, and returns the resized slice.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// SolvePowers attempts to find a power vector under which every link in
// set succeeds simultaneously. It returns the powers and true on
// success, or nil and false when no such vector exists (within the
// iteration budget).
func (m *PowerControl) SolvePowers(set []int) ([]float64, bool) {
	k := len(set)
	if k == 0 {
		return nil, true
	}
	sc := m.scratch.Get().(*pcScratch)
	ok := m.solveInto(sc, set)
	if !ok {
		m.scratch.Put(sc)
		return nil, false
	}
	out := make([]float64, k)
	copy(out, sc.p)
	// Scale up marginally so the ≥ comparisons hold strictly
	// despite floating-point rounding.
	for i := range out {
		out[i] *= 1 + 1e-9
		if out[i] == 0 {
			out[i] = m.prm.Beta * sc.noise[i] * (1 + 1e-9)
		}
	}
	m.scratch.Put(sc)
	return out, true
}

// resolveSlot resolves one counted slot into out: build the ascending
// set of singly-requested links, shed the most-interfered link until the
// residual set admits a joint power vector, and mark the survivors.
func (m *PowerControl) resolveSlot(sc *pcScratch, tx []int, out []bool) {
	sort.Ints(sc.rs.Uniq)
	set := sc.set[:0]
	for _, e := range sc.rs.Uniq {
		if sc.rs.Counts[e] == 1 {
			set = append(set, e)
		}
	}
	if len(set) > 0 {
		// Shedding consults the analysis matrix; make sure it exists
		// before the hot loop (lazy under the indexed backing).
		m.ensureWeights()
	}
	for len(set) > 0 {
		if m.solveInto(sc, set) {
			break
		}
		set = m.shedWorst(sc, set)
	}
	for _, e := range set {
		sc.served[e] = true
	}
	for i, e := range tx {
		out[i] = sc.rs.Counts[e] == 1 && sc.served[e]
	}
	for _, e := range set {
		sc.served[e] = false
	}
}

// NewResolver implements interference.Model. Duplicate attempts on a
// link fail; among the remaining links the model solves for a joint
// power vector, shedding the most-interfered link until the residual
// set is feasible. Shed links fail, the rest succeed. Every buffer is
// reused across slots, so steady-state resolution performs no
// allocations. Large solver systems shard across workers intra-slot
// workers (0 = Options.Parallelism, default GOMAXPROCS); results are
// bit-identical at every worker count. The model has no spatial slot
// grid, so the stats function reports only the worker count.
func (m *PowerControl) NewResolver(workers int) (func(tx []int) []bool, func() interference.ResolveStats) {
	sc := m.scratch.New().(*pcScratch)
	if workers < 1 {
		workers = m.opts.workers(m.NumLinks())
	}
	sc.workers = workers
	resolve := func(tx []int) []bool {
		out := sc.rs.Begin(tx)
		m.resolveSlot(sc, tx, out)
		sc.rs.End(tx)
		return out
	}
	return resolve, func() interference.ResolveStats { return interference.ResolveStats{Workers: workers} }
}

// shedWorst removes the link that suffers the largest summed weight from
// the rest of the set — the one the analysis matrix identifies as most
// interfered. The removal is in place (order-preserving), so no
// allocation occurs. The per-candidate sums shard across workers (each
// candidate's sum is accumulated wholly by one claimant, in set order);
// the first-maximum argmax scan stays serial, so the shed choice is
// bit-identical at every worker count.
func (m *PowerControl) shedWorst(sc *pcScratch, set []int) []int {
	k := len(set)
	sums := growFloats(&sc.shedSum, k)
	sc.curSet = set
	if sc.workers > 1 && k >= parallelMinRows {
		sc.mode = pcModeShed
		par.Run(&sc.job, sc, k, sc.workers)
	} else {
		m.shedSums(sc, 0, k)
	}
	worst, worstVal := 0, -1.0
	for i, sum := range sums {
		if sum > worstVal {
			worst, worstVal = i, sum
		}
	}
	copy(set[worst:], set[worst+1:])
	return set[:len(set)-1]
}

// shedSums fills the symmetrized interference sums for candidates
// [lo, hi).
func (m *PowerControl) shedSums(sc *pcScratch, lo, hi int) {
	set := sc.curSet
	for i := lo; i < hi; i++ {
		e := set[i]
		sum := 0.0
		for _, e2 := range set {
			if e2 != e {
				// Use the symmetrized coupling so long links can be shed too.
				sum += math.Max(m.weightAt(e, e2), m.weightAt(e2, e))
			}
		}
		sc.shedSum[i] = sum
	}
}
