package geom

import "math"

// GridIndex buckets a set of points into a uniform grid so that spatial
// queries — "who is near q?" — cost time proportional to the local
// density instead of the point count. It is the substrate of the
// spatially-indexed interference resolvers: cells are visited in
// Chebyshev rings of growing radius around a query cell, near cells are
// summed exactly, and everything beyond the visited rings is closed in
// aggregate with FarFieldBound.
//
// The index is rebuildable in place: Fill reuses every internal buffer,
// so re-indexing a fresh subset each simulation slot performs no
// steady-state allocations. A filled index is immutable until the next
// Fill and safe for concurrent readers.
type GridIndex struct {
	minX, minY float64
	cell       float64
	cols, rows int
	count      int

	start  []int32   // CSR-style cell offsets, len cols*rows+1
	ids    []int32   // bucketed point ids, grouped by cell
	cellWt []float64 // per-cell weight sums, len cols*rows (zeros without weights)

	cellOf []int32 // scratch: cell index per selected point

	// Incremental-update state (see TryUpdate): the geometry frame and
	// selection the index currently holds — so a delta transition can
	// verify its precondition instead of trusting the caller — plus
	// swap buffers for the repack and a generation-stamped touched-cell
	// set. hasGeo is true only after FillGeom; the legacy Fill clears
	// it, so indexes built outside an explicit frame never delta-update.
	geo     Geometry
	hasGeo  bool
	selCopy []int32
	start2  []int32
	ids2    []int32
	cellOf2 []int32
	touch   []int32
	mark    []int64
	gen     int64
}

// NewGridIndex builds an index over all of pts. A cellSize of 0 picks
// one automatically so the grid holds roughly one point per cell.
func NewGridIndex(pts []Point, cellSize float64) *GridIndex {
	g := &GridIndex{}
	g.Fill(pts, nil, nil, cellSize)
	return g
}

// Fill rebuilds the index over the selected points, reusing all internal
// buffers. sel lists indices into pts (nil selects every point); wt, when
// non-nil, assigns pts[i] the weight wt[i] and per-cell weight sums are
// accumulated in selection order (deterministic). A cellSize of 0 sizes
// cells so the grid has about as many cells as selected points; a
// positive cellSize is used verbatim unless it would explode the cell
// count, in which case it is widened to keep the grid proportional to
// the selection.
func (g *GridIndex) Fill(pts []Point, sel []int32, wt []float64, cellSize float64) {
	g.hasGeo = false
	k := len(sel)
	if sel == nil {
		k = len(pts)
	}
	g.count = k
	if k == 0 {
		g.cols, g.rows = 0, 0
		g.start = growInt32s(&g.start, 1)
		g.start[0] = 0
		g.ids = g.ids[:0]
		return
	}
	at := func(i int) Point {
		if sel == nil {
			return pts[i]
		}
		return pts[sel[i]]
	}
	// Bounding box of the selection.
	min, max := at(0), at(0)
	for i := 1; i < k; i++ {
		p := at(i)
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	w, h := max.X-min.X, max.Y-min.Y
	cell := cellSize
	auto := autoCell(w, h, k)
	if cell <= 0 || !(cell < math.Inf(1)) {
		cell = auto
	} else if cell < auto && (w/cell+1)*(h/cell+1) > 4*float64(k)+64 {
		// A too-fine explicit cell would allocate far more cells than
		// points; widen to the automatic choice.
		cell = auto
	}
	g.minX, g.minY, g.cell = min.X, min.Y, cell
	g.cols = int(w/cell) + 1
	g.rows = int(h/cell) + 1
	ncells := g.cols * g.rows

	start := growInt32s(&g.start, ncells+1)
	for i := range start {
		start[i] = 0
	}
	cellOf := growInt32s(&g.cellOf, k)
	for i := 0; i < k; i++ {
		p := at(i)
		cx, cy := g.clampCell(p)
		c := int32(cy*g.cols + cx)
		cellOf[i] = c
		start[c+1]++
	}
	for c := 0; c < ncells; c++ {
		start[c+1] += start[c]
	}
	ids := growInt32s(&g.ids, k)
	// Second pass places ids in cell order while preserving the selection
	// order within each cell; start is restored by the shift below.
	for i := 0; i < k; i++ {
		c := cellOf[i]
		ids[start[c]] = int32(i)
		if sel != nil {
			ids[start[c]] = sel[i]
		}
		start[c]++
	}
	for c := ncells; c > 0; c-- {
		start[c] = start[c-1]
	}
	start[0] = 0

	cellWt := growFloat64s(&g.cellWt, ncells)
	for i := range cellWt {
		cellWt[i] = 0
	}
	if wt != nil {
		for i := 0; i < k; i++ {
			id := int32(i)
			if sel != nil {
				id = sel[i]
			}
			cellWt[cellOf[i]] += wt[id]
		}
	}
}

// autoCell picks a cell size giving roughly one selected point per cell.
func autoCell(w, h float64, k int) float64 {
	area := w * h
	if area > 0 {
		return math.Sqrt(area / float64(k))
	}
	// Degenerate (collinear or single-point) selections: spread the
	// longer extent over k cells, with 1 as the final fallback.
	if ext := math.Max(w, h); ext > 0 {
		return ext / float64(k)
	}
	return 1
}

// clampCell maps p to grid coordinates, clamping points outside the
// indexed bounding box onto the border cells.
func (g *GridIndex) clampCell(p Point) (cx, cy int) {
	cx = int((p.X - g.minX) / g.cell)
	cy = int((p.Y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

// CellAt returns the (clamped) grid cell containing p.
func (g *GridIndex) CellAt(p Point) (cx, cy int) { return g.clampCell(p) }

// Count returns the number of indexed points.
func (g *GridIndex) Count() int { return g.count }

// CellSize returns the side length of one grid cell.
func (g *GridIndex) CellSize() float64 { return g.cell }

// CellIDs returns the ids bucketed into cell (cx, cy), in selection
// order. The slice aliases internal storage; do not modify it.
func (g *GridIndex) CellIDs(cx, cy int) []int32 {
	c := cy*g.cols + cx
	return g.ids[g.start[c]:g.start[c+1]]
}

// CellWeight returns the weight sum of cell (cx, cy) — zero when the
// index was filled without weights or the cell is empty.
func (g *GridIndex) CellWeight(cx, cy int) float64 {
	return g.cellWt[cy*g.cols+cx]
}

// CellMinDistSq returns the squared distance from p to the closest point
// of cell (cx, cy)'s box — 0 when p lies inside it. It lower-bounds the
// distance from p to every point bucketed in the cell.
func (g *GridIndex) CellMinDistSq(p Point, cx, cy int) float64 {
	x0 := g.minX + float64(cx)*g.cell
	y0 := g.minY + float64(cy)*g.cell
	var dx, dy float64
	if p.X < x0 {
		dx = x0 - p.X
	} else if p.X > x0+g.cell {
		dx = p.X - (x0 + g.cell)
	}
	if p.Y < y0 {
		dy = y0 - p.Y
	} else if p.Y > y0+g.cell {
		dy = p.Y - (y0 + g.cell)
	}
	return dx*dx + dy*dy
}

// RingCells appends to dst the indices of every grid cell on the
// Chebyshev ring of radius r around (cx, cy) — the boundary of the
// (2r+1)×(2r+1) cell square — clipped to the grid, in a fixed
// deterministic order (top row, bottom row, then the side columns). It
// returns the extended slice and false once the whole grid lies strictly
// inside the ring, i.e. no ring of radius ≥ r can contain cells; callers
// use that to terminate ring expansion. Reusing dst across calls keeps
// ring iteration allocation-free in steady state.
func (g *GridIndex) RingCells(cx, cy, r int, dst []int32) ([]int32, bool) {
	if r == 0 {
		if cx >= 0 && cx < g.cols && cy >= 0 && cy < g.rows {
			dst = append(dst, int32(cy*g.cols+cx))
		}
		return dst, true
	}
	if cx-r < 0 && cx+r > g.cols-1 && cy-r < 0 && cy+r > g.rows-1 {
		return dst, false
	}
	x0, x1 := cx-r, cx+r
	y0, y1 := cy-r, cy+r
	cx0, cx1 := clampInt(x0, 0, g.cols-1), clampInt(x1, 0, g.cols-1)
	if y0 >= 0 {
		row := int32(y0 * g.cols)
		for x := cx0; x <= cx1; x++ {
			dst = append(dst, row+int32(x))
		}
	}
	if y1 <= g.rows-1 {
		row := int32(y1 * g.cols)
		for x := cx0; x <= cx1; x++ {
			dst = append(dst, row+int32(x))
		}
	}
	iy0, iy1 := clampInt(y0+1, 0, g.rows-1), clampInt(y1-1, 0, g.rows-1)
	if y0+1 <= y1-1 {
		if x0 >= 0 {
			for y := iy0; y <= iy1; y++ {
				dst = append(dst, int32(y*g.cols+x0))
			}
		}
		if x1 <= g.cols-1 {
			for y := iy0; y <= iy1; y++ {
				dst = append(dst, int32(y*g.cols+x1))
			}
		}
	}
	return dst, true
}

// CellIDsAt, CellWeightAt and CellMinDistSqAt are the flat-index forms
// of CellIDs/CellWeight/CellMinDistSq for cells obtained from RingCells.

// CellIDsAt returns the ids bucketed into the flat-indexed cell.
func (g *GridIndex) CellIDsAt(ci int32) []int32 {
	return g.ids[g.start[ci]:g.start[ci+1]]
}

// CellWeightAt returns the weight sum of the flat-indexed cell.
func (g *GridIndex) CellWeightAt(ci int32) float64 { return g.cellWt[ci] }

// CellMinDistSqAt returns CellMinDistSq for a flat cell index.
func (g *GridIndex) CellMinDistSqAt(p Point, ci int32) float64 {
	return g.CellMinDistSq(p, int(ci)%g.cols, int(ci)/g.cols)
}

// OuterDist returns a lower bound on the distance from p to any indexed
// cell strictly outside the rings of radius ≤ r around (cx, cy), and
// whether any such cell exists. It is the distance that makes
// FarFieldBound rigorous for the not-yet-visited remainder.
func (g *GridIndex) OuterDist(p Point, cx, cy, r int) (float64, bool) {
	d := math.Inf(1)
	any := false
	if cx-r > 0 { // cells to the left of the square remain
		any = true
		d = math.Min(d, math.Max(0, p.X-(g.minX+float64(cx-r)*g.cell)))
	}
	if cx+r < g.cols-1 { // right
		any = true
		d = math.Min(d, math.Max(0, (g.minX+float64(cx+r+1)*g.cell)-p.X))
	}
	if cy-r > 0 { // below
		any = true
		d = math.Min(d, math.Max(0, p.Y-(g.minY+float64(cy-r)*g.cell)))
	}
	if cy+r < g.rows-1 { // above
		any = true
		d = math.Min(d, math.Max(0, (g.minY+float64(cy+r+1)*g.cell)-p.Y))
	}
	if !any {
		return 0, false
	}
	return d, true
}

// OuterDistFloor lowers an OuterDist result od for p by the rounding
// od carries, so that it holds for computed values: no point bucketed
// in a cell outside the square has a computed p.Dist below the result,
// and no such cell a computed CellMinDistSq below its square. Cell
// assignment (⌊(x−minX)/cell⌋) and cell edges (minX + k·cell) round in
// absolute terms — a point can sit a few ulps of the coordinates'
// magnitude on the wrong side of the edge OuterDist measured to — so
// far from the origin the allowance is absolute, not relative to od.
// The relative part covers the subtraction behind od and the rounding
// of Dist (math.Hypot) and CellMinDistSq. A result ≤ 0 certifies
// nothing.
func (g *GridIndex) OuterDistFloor(p Point, od float64) float64 {
	scale := math.Abs(p.X) + math.Abs(p.Y) + math.Abs(g.minX) + math.Abs(g.minY) +
		float64(g.cols+g.rows+2)*g.cell
	return od*(1-0x1p-50) - 0x1p-48*scale
}

// MaxRing returns the largest ring radius around (cx, cy) that still
// touches the grid; rings beyond it are empty.
func (g *GridIndex) MaxRing(cx, cy int) int {
	m := cx
	if v := g.cols - 1 - cx; v > m {
		m = v
	}
	if cy > m {
		m = cy
	}
	if v := g.rows - 1 - cy; v > m {
		m = v
	}
	return m
}

// Within appends to dst the ids of every indexed point within Euclidean
// distance radius of p (inclusive) and returns the extended slice. Cells
// are pruned by their box distance, so the cost is proportional to the
// number of cells and points near p, not the index size. ring is the
// caller's scratch for each ring's cell list: Within overwrites it and
// returns it grown, so a caller that passes it back on every query
// allocates nothing once the buffers reach their high-water marks.
func (g *GridIndex) Within(p Point, radius float64, pts []Point, dst, ring []int32) ([]int32, []int32) {
	if g.count == 0 || !(radius >= 0) {
		return dst, ring
	}
	r2 := radius * radius
	cx, cy := g.clampCell(p)
	maxRing := g.MaxRing(cx, cy)
	for r := 0; r <= maxRing; r++ {
		var cont bool
		ring, cont = g.RingCells(cx, cy, r, ring[:0])
		for _, ci := range ring {
			if g.CellMinDistSqAt(p, ci) > r2 {
				continue
			}
			for _, id := range g.CellIDsAt(ci) {
				if p.DistSq(pts[id]) <= r2 {
					dst = append(dst, id)
				}
			}
		}
		if !cont {
			break
		}
		// Once even the closest unvisited cell is beyond the radius, no
		// further ring can contribute.
		if od, ok := g.OuterDist(p, cx, cy, r); !ok || od > radius {
			break
		}
	}
	return dst, ring
}

// FarFieldBound bounds the aggregate path-loss contribution of a remote
// point mass: if points with total weight (transmission power) remaining
// all sit at distance ≥ minDist from the query, their summed contribution
// Σ pᵢ/d(i)^α is at most remaining/minDist^α. This is the far-field
// closure of the ring expansion: visited rings are summed (exactly or
// per-cell), the unvisited remainder is charged in one term.
//
// The bound is tight exactly when the remainder is concentrated at
// minDist; its usefulness in the plane comes from Corollary 14's fading
// condition α > 2 (the doubling dimension of Euclidean 2-space, see
// DoublingDimension): then ring masses grow like ρ (the boundary of a
// doubling ball) while per-point contributions decay like ρ^{-α}, so the
// true tail decays geometrically and a constant number of rings pushes
// the bound below any fixed floor ε. FarFieldSeriesBound states that
// analytic form. minDist^α is Pow's, so math.Pow's bits at any α.
func FarFieldBound(alpha, remaining, minDist float64) float64 {
	if remaining <= 0 {
		return 0
	}
	if minDist <= 0 {
		return math.Inf(1)
	}
	return remaining / Pow(minDist, alpha)
}

// FarFieldSeriesBound bounds the total path-loss contribution of every
// grid cell on rings ≥ fromRing around a query cell, assuming no cell
// carries more than cellWeightCap total power: ring ρ has 8ρ cells at
// distance ≥ (ρ-1)·cellSize, so the tail is at most
//
//	Σ_{ρ≥fromRing} 8ρ · cellWeightCap / ((ρ-1)·cellSize)^α,
//
// which converges exactly when α > 2 — the α-vs-doubling-dimension
// condition of Corollary 14 (the plane's doubling dimension is 2; a ring
// of radius ρ holds Θ(ρ^{dim}) = Θ(ρ²)/Θ(ρ) cells on its boundary). For
// α ≤ 2 the series diverges and the bound is +Inf: without the fading
// condition the far field cannot be truncated.
func FarFieldSeriesBound(alpha, cellWeightCap, cellSize float64, fromRing int) float64 {
	if cellWeightCap <= 0 {
		return 0
	}
	if alpha <= 2 || cellSize <= 0 || fromRing < 2 {
		return math.Inf(1)
	}
	total := 0.0
	for rho := fromRing; ; rho++ {
		term := 8 * float64(rho) * cellWeightCap / math.Pow(float64(rho-1)*cellSize, alpha)
		total += term
		// The terms decay like ρ^{1-α}; once a term is negligible
		// relative to the accumulated sum, close the remainder with the
		// integral comparison Σ_{ρ>R} ρ^{1-α} ≤ R^{2-α}/(α-2).
		if term < 1e-12*total {
			rhoF := float64(rho)
			total += 8 * cellWeightCap * 2 * math.Pow(rhoF*cellSize, 2-alpha) / ((alpha - 2) * math.Pow(cellSize, 2))
			return total
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// growInt32s resizes *buf to n entries, reallocating only on capacity
// growth, and returns the resized slice.
func growInt32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growFloat64s is growInt32s for float64 buffers.
func growFloat64s(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
