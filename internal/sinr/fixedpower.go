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

// WeightKind selects which Section 6.1 weight matrix a fixed-power model
// uses for its analysis side.
type WeightKind int

// Weight matrix constructions from Section 6.1.
const (
	// WeightAffectance sets W[ℓ][ℓ'] = a_p(ℓ', ℓ): the interference ℓ'
	// causes at ℓ. This is the construction for linear power assignments.
	WeightAffectance WeightKind = iota + 1
	// WeightMonotone sets W[ℓ][ℓ'] = max{a_p(ℓ,ℓ'), a_p(ℓ',ℓ)} when
	// d(ℓ) ≤ d(ℓ') and 0 otherwise: the construction for monotone
	// (sub-)linear assignments such as uniform powers.
	WeightMonotone
)

// FixedPower is the SINR model with a fixed transmission power per link
// (Section 6.1). Its resolvers apply the exact physical SINR test; its
// Weight method exposes the chosen analysis matrix.
type FixedPower struct {
	g      *netgraph.Graph
	prm    Params
	powers []float64
	kind   WeightKind
	opts   Options
	info   TableInfo

	// Cached per-link quantities.
	lens    []float64 // link lengths
	signals []float64 // received signal strength p(ℓ)/d(ℓ)^α
	// rex2 is each receiver's exact radius², the squared distance within
	// which a single interferer can reach the contribution floor (see
	// exactRadiusSq). Indexed backing at FarFloor > 0 only.
	rex2 []float64
	// gain.at(e, e2) = p(e2)/d(s', r)^α — the interference power a
	// transmission on e2 lands at e's receiver. Precomputed once so the
	// per-slot SINR test is a flat table sum with no math.Pow calls;
	// d(s', r) = 0 stores +Inf, exactly the value the division yields.
	// Nil under the indexed backing, which computes gains on demand.
	gain *crossTable

	// Indexed-backing state: sender/receiver positions per link and the
	// largest transmission power (the radius bound of the contribution
	// floor).
	sendPos []geom.Point
	recvPos []geom.Point
	pmax    float64

	// Powers of α, fixed at construction. alphaInt is α when it is a
	// whole exponent (geom.WholeExponent), so d^α is geom.PowInt's, and 0
	// otherwise. halfInt is α/2 when that is whole (even α): the far-cell
	// power d²^(α/2) is then exact too. oddHalf is (α−1)/2 for odd α ≥ 3,
	// whose far-cell powers indexedVerdict takes as the cheap certified
	// d²^oddHalf·√d² (ringWalk).
	alphaInt, halfInt, oddHalf int

	// The analysis matrix. Table backings build it eagerly (the
	// historical behavior); the indexed backing builds it on first use —
	// exactly at ε = 0, floor-sparse through the spatial index at ε > 0
	// — so pure slot-resolution workloads never pay for it.
	weightsOnce sync.Once
	w           [][]float64
	rows        *interference.Sparse
	name        string

	// Cumulative resolver accounting (observability only — never read
	// by the resolution itself). Shared across the model's resolvers,
	// hence atomic.
	gridRebuilds     atomic.Uint64
	gridDeltaUpdates atomic.Uint64
	rewalks          atomic.Uint64
}

// fpScratch fill modes: which range body RunChunks executes.
const (
	fpModeTable = iota
	fpModeIndexedExact
	fpModeIndexedGrid
)

// fpScratch is the per-resolver buffer set: slot counting plus, under
// the indexed backing, the per-slot spatial grid and its id/ring
// buffers. It doubles as the resolver's parallel fan-out job (it
// implements par.Runner), so dispatching a slot across workers stays
// allocation-free.
type fpScratch struct {
	rs   *interference.ResolverScratch
	grid geom.GridIndex
	sel  []int32

	// Fan-out state: the owning model, the worker count this resolver
	// runs with, the embedded reusable job, and the current slot's
	// inputs. wring holds one ring-iteration buffer per worker slot so
	// concurrent grid queries never share scratch.
	m       *FixedPower
	workers int
	job     par.Job
	mode    int
	tx      []int
	out     []bool
	ptotal  float64
	wring   [][]int32

	// indexedVerdict's rounding allowances for this slot (beginGridSlot):
	// the early-success slack and growth factor, and the certified
	// tail's bracket factors.
	remSlack, farGrow float64
	tailLo, tailHi    float64

	// This resolver's grid accounting (prepareGrid) and its re-walked
	// verdicts (indexedVerdict; atomic, since the slot's workers share
	// the scratch), read through NewResolver's stats function.
	rebuilds, deltas uint64
	rewalks          atomic.Uint64
}

var (
	_ interference.Model                = (*FixedPower)(nil)
	_ interference.RowsProvider         = (*FixedPower)(nil)
	_ interference.ResolveStatsProvider = (*FixedPower)(nil)
	_ par.Runner                        = (*fpScratch)(nil)
)

// NewFixedPower builds a fixed-power SINR model with default options.
// The graph must carry node positions and powers must have one positive
// entry per link. Construction precomputes the cross-gain table and both
// weight matrices, fanning the O(n²) work across Options.Parallelism
// workers (GOMAXPROCS by default); the results are bit-identical to the
// serial per-pair evaluation at every worker count.
func NewFixedPower(g *netgraph.Graph, prm Params, powers []float64, kind WeightKind) (*FixedPower, error) {
	return NewFixedPowerOpts(g, prm, powers, kind, Options{})
}

// NewFixedPowerOpts is NewFixedPower with explicit storage options. The
// indexed backing (BackIndexed) requires planar positions: it stores no
// cross table at all — O(n) memory — and resolves slots through a
// spatial grid, bit-identical to the table backings at FarFloor = 0 and
// within the documented far-field envelope otherwise.
func NewFixedPowerOpts(g *netgraph.Graph, prm Params, powers []float64, kind WeightKind, opt Options) (*FixedPower, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if !g.HasDistances() {
		return nil, fmt.Errorf("sinr: graph has neither positions nor a metric")
	}
	if len(powers) != g.NumLinks() {
		return nil, fmt.Errorf("sinr: %d powers for %d links", len(powers), g.NumLinks())
	}
	if kind != WeightAffectance && kind != WeightMonotone {
		return nil, fmt.Errorf("sinr: unknown weight kind %d", int(kind))
	}
	m := &FixedPower{
		g:      g,
		prm:    prm,
		powers: append([]float64(nil), powers...),
		kind:   kind,
		opts:   opt,
	}
	m.alphaInt = geom.WholeExponent(prm.Alpha)
	if m.alphaInt > 1 {
		if m.alphaInt%2 == 0 {
			m.halfInt = m.alphaInt / 2
		} else {
			m.oddHalf = (m.alphaInt - 1) / 2
		}
	}
	n := g.NumLinks()
	m.info = opt.tableInfo(n)
	m.lens = make([]float64, n)
	m.signals = make([]float64, n)
	for i := 0; i < n; i++ {
		p := powers[i]
		if p <= 0 {
			return nil, fmt.Errorf("sinr: link %d has non-positive power %v", i, p)
		}
		m.lens[i] = g.LinkDist(netgraph.LinkID(i))
		m.signals[i] = p / m.pathLoss(m.lens[i])
		if p > m.pmax {
			m.pmax = p
		}
	}
	if opt.Backing == BackIndexed {
		if err := m.initSpatial(); err != nil {
			return nil, err
		}
	} else {
		m.gain = buildCrossTable(n, opt, func(at, src int) float64 {
			recv := g.Link(netgraph.LinkID(at)).To
			d := g.NodeDist(g.Link(netgraph.LinkID(src)).From, recv)
			// d == 0 divides to +Inf — the sentinel the SINR test expects.
			return m.powers[src] / m.pathLoss(d)
		})
		m.ensureWeights()
	}
	m.name = fmt.Sprintf("sinr-fixed(%s)", kindName(kind))
	return m, nil
}

// initSpatial caches per-link endpoint positions for the indexed
// backing. Positions (not a metric override) are required: the spatial
// grid prunes by planar distance, so the interference formula must read
// the same geometry.
func (m *FixedPower) initSpatial() error {
	if !m.g.HasPositions() || m.g.HasMetric() {
		return fmt.Errorf("sinr: the indexed backing requires planar node positions (no metric override)")
	}
	n := m.g.NumLinks()
	m.sendPos = make([]geom.Point, n)
	m.recvPos = make([]geom.Point, n)
	for e := 0; e < n; e++ {
		l := m.g.Link(netgraph.LinkID(e))
		m.sendPos[e] = m.g.Pos(l.From)
		m.recvPos[e] = m.g.Pos(l.To)
	}
	if m.opts.FarFloor > 0 {
		m.rex2 = make([]float64, n)
		for e := range m.rex2 {
			m.rex2[e] = m.exactRadiusSq(m.signals[e])
		}
	}
	return nil
}

// exactRadiusSq is the exact radius² of a receiver with the given
// signal at FarFloor ε > 0: a single interferer at distance d
// contributes p/d^α ≥ budget = ε·signal/β only when d^α ≤ pmax/budget,
// so cells beyond that radius hold only below-floor interferers and
// may be aggregated.
func (m *FixedPower) exactRadiusSq(signal float64) float64 {
	budget := m.opts.FarFloor * signal / m.prm.Beta
	return math.Pow(m.pmax/budget, 2/m.prm.Alpha)
}

// pathLoss is d^α, math.Pow's bits through geom.PowInt when α is whole.
func (m *FixedPower) pathLoss(d float64) float64 {
	if m.alphaInt > 0 {
		return geom.PowInt(d, m.alphaInt)
	}
	return math.Pow(d, m.prm.Alpha)
}

func kindName(k WeightKind) string {
	if k == WeightAffectance {
		return "affectance"
	}
	return "monotone"
}

// affectanceFromGain is Affectance rewritten over a precomputed gain
// entry: gain = p(ℓ)/d(s, r')^α and signal = p(ℓ')/d(ℓ')^α. A +Inf gain
// covers both the d(s, r') = 0 branch of Affectance and an underflowed
// path-loss power — in either case the original formula yields 1.
func affectanceFromGain(gain, signal, betaNoise, beta float64) float64 {
	if math.IsInf(gain, 1) {
		return 1
	}
	margin := signal - betaNoise
	if margin <= 0 {
		return 1
	}
	return math.Min(1, beta*gain/margin)
}

// gainAt returns the cross gain p(src)/d(s_src, r_at)^α: a table read
// when a table exists, otherwise the same formula evaluated on demand —
// the operations match the table build exactly, so both paths are
// bit-identical.
func (m *FixedPower) gainAt(at, src int) float64 {
	if m.gain != nil {
		return m.gain.at(at, src)
	}
	return m.powers[src] / m.pathLoss(m.sendPos[src].Dist(m.recvPos[at]))
}

// ensureWeights builds the analysis matrix on first use. Table backings
// call it at construction; the indexed backing defers it so pure
// slot-resolution workloads at large n never materialise W.
func (m *FixedPower) ensureWeights() {
	m.weightsOnce.Do(func() {
		if m.opts.Backing == BackIndexed && m.opts.FarFloor > 0 {
			m.buildWeightsFloorSparse()
			return
		}
		m.buildWeightsExact()
	})
}

// buildWeightsExact derives the analysis matrix entry for entry — via
// the gain table when one exists, via the identical on-demand formula
// under the indexed backing — and extracts its CSR form, both fanned
// across the construction workers (Options.Parallelism). The result
// matches the Affectance-based construction bit for bit (same
// operations on the same values).
func (m *FixedPower) buildWeightsExact() {
	n := m.g.NumLinks()
	m.w = make([][]float64, n)
	betaNoise := m.prm.Beta * m.prm.Noise
	workers := m.opts.workers(n)
	par.For(context.Background(), n, workers, func(e int) {
		row := make([]float64, n)
		for e2 := 0; e2 < n; e2++ {
			if e == e2 {
				row[e2] = 1
				continue
			}
			switch m.kind {
			case WeightAffectance:
				row[e2] = affectanceFromGain(m.gainAt(e, e2), m.signals[e], betaNoise, m.prm.Beta)
			case WeightMonotone:
				// Interference is charged to the shorter link only.
				if m.lens[e] <= m.lens[e2] {
					a1 := affectanceFromGain(m.gainAt(e2, e), m.signals[e2], betaNoise, m.prm.Beta)
					a2 := affectanceFromGain(m.gainAt(e, e2), m.signals[e], betaNoise, m.prm.Beta)
					row[e2] = math.Max(a1, a2)
				}
			}
		}
		m.w[e] = row
	})
	m.rows = interference.SparseFromWeights(n, workers, func(e, e2 int) float64 { return m.w[e][e2] })
}

// WeightRows implements interference.RowsProvider. For monotone
// assignments roughly half the matrix is structurally zero; for
// affectance matrices the CSR form still wins by replacing dynamic
// Weight calls with flat array scans.
func (m *FixedPower) WeightRows() *interference.Sparse {
	m.ensureWeights()
	return m.rows
}

// Name implements interference.Model.
func (m *FixedPower) Name() string { return m.name }

// NumLinks implements interference.Model.
func (m *FixedPower) NumLinks() int { return m.g.NumLinks() }

// Weight implements interference.Model.
func (m *FixedPower) Weight(e, e2 int) float64 {
	m.ensureWeights()
	if m.w != nil {
		return m.w[e][e2]
	}
	return m.rows.At(e, e2)
}

// Table reports which backing the model resolved to and with which
// knobs — the run-diagnostics record.
func (m *FixedPower) Table() TableInfo { return m.info }

// Graph returns the underlying communication graph.
func (m *FixedPower) Graph() *netgraph.Graph { return m.g }

// Params returns the physical constants.
func (m *FixedPower) Params() Params { return m.prm }

// Power returns the transmission power of link e.
func (m *FixedPower) Power(e int) float64 { return m.powers[e] }

// LinkLen returns the length of link e.
func (m *FixedPower) LinkLen(e int) float64 { return m.lens[e] }

// resolveSlot routes a counted slot to the backing's fill path,
// fanning the per-link loop across the resolver's workers when the slot
// is large enough (see runRanges).
func (m *FixedPower) resolveSlot(sc *fpScratch, tx []int, out []bool) {
	sort.Ints(sc.rs.Uniq)
	sc.tx, sc.out = tx, out
	if m.opts.Backing == BackIndexed {
		m.resolveIndexed(sc)
	} else {
		sc.mode = fpModeTable
		m.runRanges(sc)
	}
	sc.tx, sc.out = nil, nil
}

// runRanges executes the scratch's current fill mode over every tx
// index: sharded across the worker pool for large slots, in one serial
// call otherwise. The per-link bodies write disjoint out entries and
// read only shared immutable state, and each link's interference sum is
// accumulated wholly by its one claimant in the serial order — so the
// output is bit-identical at every worker count.
func (m *FixedPower) runRanges(sc *fpScratch) {
	n := len(sc.tx)
	if workers := sc.workers; workers > 1 && n >= parallelMinTx {
		for len(sc.wring) < workers {
			sc.wring = append(sc.wring, nil)
		}
		par.Run(&sc.job, sc, n, workers)
		return
	}
	if len(sc.wring) == 0 {
		sc.wring = append(sc.wring, nil)
	}
	m.fillRange(sc, 0, 0, n)
}

// RunChunks implements par.Runner: claim contiguous tx ranges until
// the slot is exhausted.
func (sc *fpScratch) RunChunks(slot int) {
	for {
		lo, hi := sc.job.Claim()
		if lo < 0 {
			return
		}
		sc.m.fillRange(sc, slot, lo, hi)
	}
}

// fillRange dispatches one contiguous tx range to the active mode's
// body.
func (m *FixedPower) fillRange(sc *fpScratch, slot, lo, hi int) {
	switch sc.mode {
	case fpModeTable:
		m.fillTableRange(sc, lo, hi)
	case fpModeIndexedExact:
		m.fillIndexedExactRange(sc, lo, hi)
	default:
		m.fillIndexedGridRange(sc, slot, lo, hi)
	}
}

// fillTableRange resolves tx[lo:hi] of the counted slot against the
// gain table. Distinct links are summed in ascending order — the
// historical order — so the floating-point interference sums, and
// therefore the outcomes, are bit-identical across dense and CSR table
// backings, and
// across worker counts. A co-located interferer contributes a +Inf
// gain; adding it yields the same +Inf sum the pre-table code produced
// by short-circuiting (all terms are non-negative, so no NaN can
// arise).
func (m *FixedPower) fillTableRange(sc *fpScratch, lo, hi int) {
	s := sc.rs
	for i := lo; i < hi; i++ {
		e := sc.tx[i]
		if s.Counts[e] != 1 {
			continue
		}
		interf := m.prm.Noise
		if row := m.gain.denseRow(e); row != nil {
			for _, e2 := range s.Uniq {
				if e2 != e {
					interf += row[e2]
				}
			}
		} else {
			// CSR backing: merge-join the sorted uniq list with the row's
			// ascending columns; absent entries are exact +0.0 terms, so
			// skipping them leaves the sum bit-identical.
			cols, vals := m.gain.csrRow(e)
			k := 0
			for _, e2 := range s.Uniq {
				if e2 == e {
					continue
				}
				for k < len(cols) && int(cols[k]) < e2 {
					k++
				}
				if k < len(cols) && int(cols[k]) == e2 {
					interf += vals[k]
				}
			}
		}
		sc.out[i] = m.signals[e] >= m.prm.Beta*interf
	}
}

// resolveIndexed resolves one counted slot through the spatial
// index. At FarFloor = 0 the interference sum visits every distinct
// transmitting link in ascending order with the exact table-build
// formula — bit-identical to the table paths. At FarFloor = ε > 0 each
// receiver's test runs against the spatially-indexed estimate Î ≥ I_true
// (see indexedVerdict), so reported successes are true SINR successes.
//
// The grid is prepared serially — incrementally when the previous
// slot's geometry and most of its transmitter set carry over — and is
// immutable during the fanned-out per-link queries.
func (m *FixedPower) resolveIndexed(sc *fpScratch) {
	if m.opts.FarFloor == 0 {
		sc.mode = fpModeIndexedExact
		m.runRanges(sc)
		return
	}
	m.beginGridSlot(sc)
	sc.mode = fpModeIndexedGrid
	m.runRanges(sc)
}

// unitRoundoff is u = 2⁻⁵³, the relative error of one correctly
// rounded float64 operation.
const unitRoundoff = 0x1p-53

// beginGridSlot sets up the FarFloor > 0 state of one counted slot: the
// ascending selection of distinct transmitters, their total power, the
// rounding allowances of indexedVerdict's early exits and certified
// tail, and the grid.
//
// With k transmitters, the finished estimate adds at most k+1 further
// terms (one per remaining point or aggregated cell, plus the far-field
// closure), each with one rounding; the power in each term and in the
// bound is math.Pow's (or geom.PowInt's, the same bits), which is within
// (1450 + 2α)·u of the true power for every finite normal result
// (Exp(yf·Log x) with |yf·ln x| ≤ 710, then repeated squaring over α's
// integer part); one division per term and the check's own few
// operations add a few u more. farGrow covers all of that at least
// twice over. remSlack bounds the error of rem = ptotal − visited,
// whose three summations (ptotal, the cell weights, visited) each err
// by at most k·u·ptotal.
//
// tailLo and tailHi bracket the exact walk's far-cell sum by the cheap
// one (odd α, ringWalk): exact tail ∈ [cheap·tailLo, cheap·tailHi]. A
// cheap power is c = fl(fl(d²^h)·fl(√d²)) with h = (α−1)/2. Any product
// of h factors errs by at most (h−1)·u, and the root and the product
// add one rounding each, so c is within ((α+1)/2)·u of the true
// d²^(α/2), and the exact power within (1450 + 2α)·u of it. Each term's
// division adds u on either side, and each side's float sum of at most
// k non-negative terms errs by at most k·u of its exact sum (2k·u for
// the two). The bracket's own product adds u. Together that is
// (1453 + 2.5α + 2k)·u to first order; the band (4k + 5α + 4096)·u
// covers it at least twice over, second-order terms included. These
// relative bounds need normal values, so the walk drops the cheap tail
// for the exact one whenever a cheap power, term or partial sum leaves
// [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰].
func (m *FixedPower) beginGridSlot(sc *fpScratch) {
	sel := sc.sel[:0]
	ptotal := 0.0
	for _, e := range sc.rs.Uniq {
		sel = append(sel, int32(e))
		ptotal += m.powers[e]
	}
	sc.sel = sel
	sc.ptotal = ptotal
	k := float64(len(sel))
	sc.remSlack = (4*k + 8) * unitRoundoff * ptotal
	sc.farGrow = 1 + (2*k+8*m.prm.Alpha+8192)*unitRoundoff
	band := (4*k + 5*m.prm.Alpha + 4096) * unitRoundoff
	sc.tailLo, sc.tailHi = 1-band, 1+band
	m.prepareGrid(sc)
}

// prepareGrid brings sc.grid to the current slot's ascending selection.
// When the stable geometry matches the grid's current frame and at most
// half the selection changed, the grid is updated in O(delta)
// floating-point work; otherwise it is rebuilt. Both paths leave
// bit-identical grid state (geom.TryUpdate's contract), so the choice —
// and therefore slot history, including checkpoint resume points — is
// invisible in the results.
func (m *FixedPower) prepareGrid(sc *fpScratch) {
	geo := geom.StableGeometry(m.sendPos, sc.sel, m.opts.CellSize)
	if sc.grid.TryUpdate(m.sendPos, sc.sel, m.powers, geo, len(sc.sel)/2) {
		sc.deltas++
		m.gridDeltaUpdates.Add(1)
		return
	}
	sc.grid.FillGeom(m.sendPos, sc.sel, m.powers, geo)
	sc.rebuilds++
	m.gridRebuilds.Add(1)
}

// fillIndexedExactRange is the FarFloor = 0 indexed body: every
// distinct transmitter summed exactly, ascending.
func (m *FixedPower) fillIndexedExactRange(sc *fpScratch, lo, hi int) {
	s := sc.rs
	beta := m.prm.Beta
	for i := lo; i < hi; i++ {
		e := sc.tx[i]
		if s.Counts[e] != 1 {
			continue
		}
		interf := m.prm.Noise
		recv := m.recvPos[e]
		for _, e2 := range s.Uniq {
			if e2 != e {
				interf += m.powers[e2] / m.pathLoss(m.sendPos[e2].Dist(recv))
			}
		}
		sc.out[i] = m.signals[e] >= beta*interf
	}
}

// fillIndexedGridRange is the FarFloor > 0 indexed body, with a
// per-worker ring buffer so concurrent queries never share iteration
// scratch.
func (m *FixedPower) fillIndexedGridRange(sc *fpScratch, slot, lo, hi int) {
	s := sc.rs
	for i := lo; i < hi; i++ {
		e := sc.tx[i]
		if s.Counts[e] != 1 {
			continue
		}
		sc.out[i] = m.indexedVerdict(sc, e, &sc.wring[slot])
	}
}

// indexedVerdict decides link e's SINR test signal ≥ β·Î against the
// slot grid in sc, where Î = near + tail is the spatially-indexed
// interference estimate at e's receiver: near is the noise plus the
// exactly-summed contribution of every interferer in cells within the
// contribution-floor radius, tail the rigorous upper bound on
// everything else (per-cell aggregates plus the far-field remainder).
//
// Soundness: Î ≥ I_true always — each aggregated cell is charged its
// full power at its closest box point, and the remainder is charged at
// the closest unvisited cell distance (geom.FarFieldBound). Accuracy:
// every interferer whose individual affectance on e reaches the floor ε
// lies within the exact radius, so the per-term error of the estimate
// is below ε·signal/β, and the remainder term alone is below that same
// budget. Per-slot cost is the number of cells and points within the
// stop radius — local density, not n.
//
// The verdict is the one the finished walk with math.Pow powers gives,
// bit for bit (spatial_test.go keeps that walk as the reference
// oracle). At odd α the walk first runs on cheap certified far-cell
// powers (ringWalk); when that leaves the threshold inside the cheap
// tail's rounding band, the receiver is walked again on the exact
// powers, and the re-walk is counted.
//
// ringp is the caller's reusable ring-cell buffer (one per worker under
// parallel resolution); it is grown in place and written back.
func (m *FixedPower) indexedVerdict(sc *fpScratch, e int, ringp *[]int32) bool {
	v, settled := m.ringWalk(sc, e, ringp, m.oddHalf == 0)
	if !settled {
		sc.rewalks.Add(1)
		m.rewalks.Add(1)
		v, _ = m.ringWalk(sc, e, ringp, true)
	}
	return v
}

// ringWalk is indexedVerdict's ring walk. With exact set, every power is
// math.Pow's (or geom.PowInt's, the same bits) and the walk always
// settles. Otherwise α is odd and each far-cell power d²^(α/2) is the
// cheap d²^((α−1)/2)·√d²: the walk carries that tail sum and brackets
// the exact one by [tail·tailLo, tail·tailHi] (beginGridSlot). It
// reports settled = false when the bracket cannot decide the verdict or
// a cheap value leaves the range the bracket is proved for.
//
// The walk stops as soon as the verdict on the finished Î is certain,
// usually many rings before Î itself is finished:
//   - failure once β·(near + lo) > signal, lo the bracket's low end:
//     float sums of non-negative terms only grow and rounded addition
//     is monotone, so the finished estimate fails too;
//   - success once β·(near + hi + rest)·farGrow ≤ signal, hi the
//     bracket's high end, where rest charges the remaining mass
//     (rem + remSlack) at the rounding-safe floor of the outer distance:
//     every term the finished walk could still add — exact, aggregated
//     or the closing far-field bound — charges its own share of that
//     mass at no less than that distance.
func (m *FixedPower) ringWalk(sc *fpScratch, e int, ringp *[]int32, exact bool) (verdict, settled bool) {
	alpha, beta := m.prm.Alpha, m.prm.Beta
	grid := &sc.grid
	q := m.recvPos[e]
	signal := m.signals[e]
	near, tail, closure := m.prm.Noise, 0.0, 0.0
	loF, hiF := 1.0, 1.0
	if !exact {
		loF, hiF = sc.tailLo, sc.tailHi
	}
	budget := m.opts.FarFloor * signal / beta
	rex2 := m.rex2[e]
	cx, cy := grid.CellAt(q)
	visited := 0.0
	maxRing := grid.MaxRing(cx, cy)
	ring := *ringp
	defer func() { *ringp = ring }()
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
			switch {
			case d2 <= rex2:
				for _, id := range grid.CellIDsAt(ci) {
					e2 := int(id)
					if e2 == e {
						continue
					}
					near += m.powers[e2] / m.pathLoss(m.sendPos[e2].Dist(q))
				}
			case exact:
				tail += w / m.halfPow(d2)
			default:
				c := geom.PowInt(d2, m.oddHalf) * math.Sqrt(d2)
				t := w / c
				tail += t
				if !(c >= 0x1p-1000 && c <= 0x1p1000 && t >= 0x1p-1000 && tail <= 0x1p1000) {
					return false, false
				}
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
			closure = b
			break
		}
		if beta*(near+tail*loF) > signal {
			return false, true
		}
		rest := certainFarBound(alpha, rem+sc.remSlack, grid.OuterDistFloor(q, od))
		if beta*((near+tail*hiF+rest)*sc.farGrow) <= signal {
			return true, true
		}
	}
	// The finished walk adds the far-field closure last: with the exact
	// tail T, its verdict is signal ≥ β·(near + (T + closure)).
	if signal >= beta*(near+(tail*hiF+closure)) {
		return true, true
	}
	if signal < beta*(near+(tail*loF+closure)) {
		return false, true
	}
	return false, false
}

// halfPow is the exact far-cell power d²^(α/2): geom.PowInt's at even α,
// math.Pow's otherwise.
func (m *FixedPower) halfPow(d2 float64) float64 {
	if m.halfInt > 0 {
		return geom.PowInt(d2, m.halfInt)
	}
	return math.Pow(d2, m.prm.Alpha/2)
}

// certainFarBound is geom.FarFieldBound(alpha, mass, dist) where
// math.Pow's error bound holds for dist^α and for every larger
// distance's power: +Inf (nothing certain) unless dist > 0 and dist^α
// is finite and at least 2⁻¹⁰⁰⁰, clear of the subnormal range.
func certainFarBound(alpha, mass, dist float64) float64 {
	if !(dist > 0) {
		return math.Inf(1)
	}
	den := geom.Pow(dist, alpha)
	if !(den >= 0x1p-1000) || math.IsInf(den, 1) {
		return math.Inf(1)
	}
	return mass / den
}

// NewResolver implements interference.Model with the exact SINR test: a
// transmission on ℓ succeeds when its link carries a single packet and
//
//	p(ℓ)/d(ℓ)^α ≥ β·(Σ_{ℓ'∈S, ℓ'≠ℓ} p(ℓ')/d(s', r)^α + ν).
//
// Every buffer is reused across slots: steady-state resolution performs
// no allocations and (on the table backings) no math.Pow calls — each
// interference term is one table read. The indexed backing re-buckets
// the transmitting senders into its reusable grid each slot and
// computes the interference terms on the fly: by a few multiplications
// when α is whole (geom.PowInt, with math.Pow's bits), by math.Pow
// otherwise, and at odd α each far-cell power by the certified
// d²^((α−1)/2)·√d² (indexedVerdict). Large slots are sharded across
// workers intra-slot workers (0 = Options.Parallelism, default
// GOMAXPROCS); results are bit-identical at every worker count. The
// stats function reports this resolver's worker count, grid work and
// re-walks alone.
func (m *FixedPower) NewResolver(workers int) (func(tx []int) []bool, func() interference.ResolveStats) {
	if workers < 1 {
		workers = m.opts.workers(m.NumLinks())
	}
	sc := &fpScratch{rs: interference.NewResolverScratch(m.NumLinks()), m: m, workers: workers}
	resolve := func(tx []int) []bool {
		out := sc.rs.Begin(tx)
		m.resolveSlot(sc, tx, out)
		sc.rs.End(tx)
		return out
	}
	stats := func() interference.ResolveStats {
		return interference.ResolveStats{Workers: sc.workers, GridRebuilds: sc.rebuilds, GridDeltaUpdates: sc.deltas, Rewalks: sc.rewalks.Load()}
	}
	return resolve, stats
}

// ResolveStats implements interference.ResolveStatsProvider.
func (m *FixedPower) ResolveStats() interference.ResolveStats {
	return interference.ResolveStats{
		Workers:          m.opts.workers(m.NumLinks()),
		GridRebuilds:     m.gridRebuilds.Load(),
		GridDeltaUpdates: m.gridDeltaUpdates.Load(),
		Rewalks:          m.rewalks.Load(),
	}
}
