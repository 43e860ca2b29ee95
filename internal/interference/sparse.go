package interference

import (
	"context"
	"fmt"
	"math"

	"dynsched/internal/par"
)

// Sparse is a compressed-sparse-row (CSR) weight matrix: only the
// non-zero entries of W are stored, as flat arrays. It is the fast-path
// representation behind Measure and IncrementalMeasure — iterating a CSR
// row touches O(nnz(row)) contiguous float64s instead of making O(E)
// dynamic Weight calls, and genuinely sparse models (identity, conflict
// graphs, monotone SINR matrices) skip their zero entries entirely.
//
// Within each row, column indices are strictly increasing. A Sparse is
// immutable after construction and safe for concurrent readers.
type Sparse struct {
	n      int
	rowPtr []int32 // len n+1; row e spans [rowPtr[e], rowPtr[e+1])
	cols   []int32
	vals   []float64
}

// RowsProvider is an optional Model extension: models with a
// precomputed (or cheaply derivable) weight matrix expose it in CSR
// form so Measure, MeasureAt, MeasureVec, and IncrementalMeasure run on
// flat arrays in O(nnz) instead of O(E²) interface calls. The returned
// matrix must equal the model's Weight function entry for entry and
// must not be mutated afterwards.
type RowsProvider interface {
	WeightRows() *Sparse
}

// assembleBlockRows is the row-block size of SparseFromRows. Blocks are
// the unit of parallel work and of allocation; the size is a constant,
// so the blocks — and with them every allocation — are the same at
// every worker count.
const assembleBlockRows = 256

// SparseFromRows assembles an n×n CSR matrix from a per-row emitter:
// row(e, emit) must call emit(col, v) with strictly ascending columns
// (it panics otherwise), and zero values are dropped (CSR lookups return
// the same exact 0). Rows whose support is discovered by a spatial query
// emit only their candidates, so assembly costs O(nnz), not O(n²).
//
// Rows are emitted in fixed blocks of assembleBlockRows on up to
// workers goroutines (par.Workers semantics) and stitched in row order,
// so the result is bit-identical to the serial emission and the
// allocations do not depend on the worker count. row must be safe for
// concurrent calls on distinct rows.
func SparseFromRows(n, workers int, row func(e int, emit func(col int32, v float64))) *Sparse {
	s := &Sparse{n: n, rowPtr: make([]int32, n+1)}
	blocks := make([]rowBlock, (n+assembleBlockRows-1)/assembleBlockRows)
	par.For(context.Background(), len(blocks), workers, func(b int) {
		lo := b * assembleBlockRows
		blocks[b].fill(lo, min(n, lo+assembleBlockRows), s.rowPtr, row)
	})
	// Stitch: rowPtr holds block-local row ends; shift each block by the
	// entries of the blocks before it and copy its entries into place.
	nnz := 0
	for b := range blocks {
		nnz += len(blocks[b].cols)
	}
	s.cols = make([]int32, nnz)
	s.vals = make([]float64, nnz)
	base := 0
	for b := range blocks {
		lo := b * assembleBlockRows
		for e := lo; e < min(n, lo+assembleBlockRows); e++ {
			s.rowPtr[e+1] += int32(base)
		}
		copy(s.cols[base:], blocks[b].cols)
		copy(s.vals[base:], blocks[b].vals)
		base += len(blocks[b].cols)
	}
	return s
}

// rowBlock accumulates the entries of one block of rows.
type rowBlock struct {
	cols []int32
	vals []float64
	prev int32 // last column emitted on the current row
}

// fill emits rows [lo, hi) into the block, recording each row's
// block-local end offset in rowPtr[e+1].
func (b *rowBlock) fill(lo, hi int, rowPtr []int32, row func(e int, emit func(col int32, v float64))) {
	b.cols = make([]int32, 0, hi-lo)
	b.vals = make([]float64, 0, hi-lo)
	emit := b.emit
	for e := lo; e < hi; e++ {
		b.prev = -1
		row(e, emit)
		rowPtr[e+1] = int32(len(b.cols))
	}
}

func (b *rowBlock) emit(col int32, v float64) {
	if col <= b.prev {
		panic("interference: SparseFromRows columns not strictly ascending")
	}
	b.prev = col
	if v == 0 {
		return
	}
	b.cols = append(b.cols, col)
	b.vals = append(b.vals, v)
}

// SparseFromWeights extracts an n×n CSR matrix from a dense weight
// function — a row emitter that scans every column — dropping zero
// entries. Cost is O(n²) calls, fanned across workers (par.Workers
// semantics) — done once per model, it converts every later measure
// evaluation to O(nnz). weight must be safe for concurrent calls on
// distinct rows.
func SparseFromWeights(n, workers int, weight func(e, e2 int) float64) *Sparse {
	return SparseFromRows(n, workers, func(e int, emit func(int32, float64)) {
		for e2 := 0; e2 < n; e2++ {
			emit(int32(e2), weight(e, e2))
		}
	})
}

// SparseFromModel extracts the model's weight matrix in CSR form. When
// the model provides its own rows they are returned directly.
func SparseFromModel(m Model) *Sparse {
	if rp, ok := m.(RowsProvider); ok {
		return rp.WeightRows()
	}
	return SparseFromWeights(m.NumLinks(), 1, m.Weight)
}

// SparseDiag returns the n×n identity matrix in CSR form.
func SparseDiag(n int) *Sparse {
	s := &Sparse{
		n:      n,
		rowPtr: make([]int32, n+1),
		cols:   make([]int32, n),
		vals:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.rowPtr[i+1] = int32(i + 1)
		s.cols[i] = int32(i)
		s.vals[i] = 1
	}
	return s
}

// NumLinks returns the matrix dimension.
func (s *Sparse) NumLinks() int { return s.n }

// NNZ returns the number of stored (non-zero) entries.
func (s *Sparse) NNZ() int { return len(s.cols) }

// Row returns the column indices and values of row e. The slices alias
// the matrix storage and must not be modified.
func (s *Sparse) Row(e int) ([]int32, []float64) {
	lo, hi := s.rowPtr[e], s.rowPtr[e+1]
	return s.cols[lo:hi], s.vals[lo:hi]
}

// At returns W[e][e2] by binary search over row e.
func (s *Sparse) At(e, e2 int) float64 {
	cols, vals := s.Row(e)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(cols[mid]) < e2 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && int(cols[lo]) == e2 {
		return vals[lo]
	}
	return 0
}

// RowDot returns (W·R)(e), the dot product of row e with an integer
// request vector. Summation visits columns in ascending order, matching
// the dense MeasureAt loop bit for bit (the entries both paths skip
// contribute exact +0.0 terms).
func (s *Sparse) RowDot(e int, r []int) float64 {
	cols, vals := s.Row(e)
	sum := 0.0
	for k, c := range cols {
		if cnt := r[c]; cnt != 0 {
			sum += vals[k] * float64(cnt)
		}
	}
	return sum
}

// RowDotVec returns the dot product of row e with a fractional vector.
func (s *Sparse) RowDotVec(e int, f []float64) float64 {
	cols, vals := s.Row(e)
	sum := 0.0
	for k, c := range cols {
		if v := f[c]; v != 0 {
			sum += vals[k] * v
		}
	}
	return sum
}

// MulInfNorm returns ‖W·R‖∞ for an integer request vector.
func (s *Sparse) MulInfNorm(r []int) float64 {
	if len(r) != s.n {
		panic(fmt.Sprintf("interference: request vector length %d, matrix has %d links", len(r), s.n))
	}
	best := 0.0
	for e := 0; e < s.n; e++ {
		if v := s.RowDot(e, r); v > best {
			best = v
		}
	}
	return best
}

// MulInfNormVec returns ‖W·F‖∞ for a fractional vector.
func (s *Sparse) MulInfNormVec(f []float64) float64 {
	if len(f) != s.n {
		panic(fmt.Sprintf("interference: vector length %d, matrix has %d links", len(f), s.n))
	}
	best := 0.0
	for e := 0; e < s.n; e++ {
		if v := s.RowDotVec(e, f); v > best {
			best = v
		}
	}
	return best
}

// Transpose returns Wᵀ in CSR form — equivalently, the original matrix
// in compressed-sparse-column form: row e2 of the transpose lists the
// rows e whose measure component a request on link e2 contributes to.
func (s *Sparse) Transpose() *Sparse {
	t := &Sparse{
		n:      s.n,
		rowPtr: make([]int32, s.n+1),
		cols:   make([]int32, len(s.cols)),
		vals:   make([]float64, len(s.vals)),
	}
	// Count entries per column, prefix-sum into row pointers.
	for _, c := range s.cols {
		t.rowPtr[c+1]++
	}
	for i := 0; i < s.n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int32, s.n)
	copy(next, t.rowPtr[:s.n])
	for e := 0; e < s.n; e++ {
		lo, hi := s.rowPtr[e], s.rowPtr[e+1]
		for k := lo; k < hi; k++ {
			c := s.cols[k]
			at := next[c]
			next[c]++
			t.cols[at] = int32(e) // rows of s arrive in ascending order
			t.vals[at] = s.vals[k]
		}
	}
	return t
}

// Validate checks the structural invariants the paper assumes of W
// (unit diagonal, entries in [0,1]) plus CSR well-formedness.
func (s *Sparse) Validate() error {
	for e := 0; e < s.n; e++ {
		cols, vals := s.Row(e)
		prev := int32(-1)
		diag := 0.0
		for k, c := range cols {
			if c <= prev || int(c) >= s.n {
				return fmt.Errorf("interference: row %d has out-of-order or out-of-range column %d", e, c)
			}
			prev = c
			v := vals[k]
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("interference: W[%d][%d] = %v outside [0,1]", e, c, v)
			}
			if int(c) == e {
				diag = v
			}
		}
		if diag != 1 {
			return fmt.Errorf("interference: W[%d][%d] = %v, want 1", e, e, diag)
		}
	}
	return nil
}

// IncrementalMeasure maintains I = ‖W·R‖∞ under per-link updates:
// AddN(e, k)/RemoveN(e, k) adjust the affected measure components in
// O(nnz(column e)) instead of recomputing the full O(E²) product, and
// Measure reads the current maximum in O(1) amortised. This is the
// sliding-window accountant behind the adversary admissibility checker
// and any caller that mutates a request vector one packet at a time.
//
// The components are updated by floating-point addition and
// subtraction, so after many updates they can drift from a fresh
// evaluation by accumulated rounding (≈1 ulp per touch). Callers that
// compare against tight thresholds should Resync periodically; AddN and
// RemoveN themselves never drift the integer request vector.
//
// Not safe for concurrent use; shards of a parallel run each own one.
type IncrementalMeasure struct {
	cols *Sparse // Wᵀ: row e lists the measure components request e touches
	r    []int
	comp []float64

	// uniform is the all-ones (multiple-access-channel) fast path, where
	// the measure is the total request count and no matrix is needed.
	uniform bool
	total   int

	maxIdx int
	maxVal float64
	dirty  bool // a decrement touched the incumbent maximum
}

// NewIncremental builds an incremental accumulator for the model's
// weight matrix, starting from the empty request vector. Construction
// extracts the matrix once (O(E²) for models without a RowsProvider);
// every later update is O(nnz(column)).
func NewIncremental(m Model) *IncrementalMeasure {
	n := m.NumLinks()
	im := &IncrementalMeasure{r: make([]int, n)}
	if _, ok := m.(AllOnes); ok {
		im.uniform = true
		return im
	}
	im.cols = SparseFromModel(m).Transpose()
	im.comp = make([]float64, n)
	return im
}

// AddN records k more requests on link e in a single column scan.
func (im *IncrementalMeasure) AddN(e, k int) {
	if k < 0 {
		panic(fmt.Sprintf("interference: AddN(%d, %d) with negative count", e, k))
	}
	if k > 0 {
		im.update(e, k)
	}
}

// RemoveN retracts k requests on link e in a single column scan. It
// panics if fewer than k are pending.
func (im *IncrementalMeasure) RemoveN(e, k int) {
	if k < 0 {
		panic(fmt.Sprintf("interference: RemoveN(%d, %d) with negative count", e, k))
	}
	if im.r[e] < k {
		panic(fmt.Sprintf("interference: RemoveN(%d, %d) with only %d pending", e, k, im.r[e]))
	}
	if k > 0 {
		im.update(e, -k)
	}
}

func (im *IncrementalMeasure) update(e, k int) {
	im.r[e] += k
	if im.uniform {
		im.total += k
		return
	}
	cols, vals := im.cols.Row(e)
	kf := float64(k)
	if k > 0 {
		for i, row := range cols {
			v := im.comp[row] + kf*vals[i]
			im.comp[row] = v
			if v > im.maxVal {
				im.maxVal, im.maxIdx = v, int(row)
			}
		}
		return
	}
	for i, row := range cols {
		im.comp[row] += kf * vals[i]
		if int(row) == im.maxIdx {
			im.dirty = true
		}
	}
}

// Measure returns the current ‖W·R‖∞.
func (im *IncrementalMeasure) Measure() float64 {
	if im.uniform {
		return float64(im.total)
	}
	if im.dirty {
		im.rescan()
	}
	return im.maxVal
}

func (im *IncrementalMeasure) rescan() {
	im.maxIdx, im.maxVal = 0, 0
	for e, v := range im.comp {
		if v > im.maxVal {
			im.maxVal, im.maxIdx = v, e
		}
	}
	im.dirty = false
}

// Resync recomputes every component exactly from the integer request
// vector, flushing accumulated floating-point drift.
func (im *IncrementalMeasure) Resync() {
	if im.uniform {
		return
	}
	for e := range im.comp {
		im.comp[e] = 0
	}
	for e, cnt := range im.r {
		if cnt == 0 {
			continue
		}
		cols, vals := im.cols.Row(e)
		cf := float64(cnt)
		for i, row := range cols {
			im.comp[row] += vals[i] * cf
		}
	}
	im.rescan()
}
