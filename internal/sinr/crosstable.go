package sinr

import (
	"context"

	"dynsched/internal/interference"
	"dynsched/internal/par"
)

// crossDenseMaxLinks is the largest link count for which cross-link
// tables are stored densely: an n×n float64 table costs 8n² bytes, so
// the cap keeps a single table at ≤ 32 MiB. Above it the table switches
// to a CSR backing that stores only non-zero entries — for geometric
// instances at that scale many cross gains underflow to exactly zero,
// and the CSR lookup returns that same exact zero for the dropped
// entries, so both backings produce bit-identical sums.
const crossDenseMaxLinks = 2048

// crossTable is a precomputed table over ordered link pairs, indexed as
// (at, src) — by convention "at" is the receiving (charged) link and
// "src" the interfering one. It is built once at model construction so
// the per-slot hot loops never call math.Pow, and is immutable (hence
// safe for concurrent readers) afterwards.
//
// Dense tables are flat row-major float64 slices; large tables are
// backed by the CSR container, where absent entries read as exact 0 —
// the value the entry function produced for them (only exact zeros are
// dropped at build time).
type crossTable struct {
	n     int
	dense []float64 // row-major [at*n + src]; nil when CSR-backed
	rows  *interference.Sparse
}

// buildCrossTable evaluates entry(at, src) for every ordered pair,
// fanning rows out across the options' construction workers
// (Options.Parallelism). entry must be safe for concurrent calls and
// deterministic; the table stores its results verbatim (including ±Inf
// and sentinel values), so later lookups are bit-identical to calling
// entry directly. The backing is decided by the options: BackDense and
// BackCSR force their storage, BackAuto switches on the (possibly
// overridden) dense cap. Every backing stores the same entry values, so
// lookups are bit-identical across all three.
func buildCrossTable(n int, opt Options, entry func(at, src int) float64) *crossTable {
	t := &crossTable{n: n}
	dense := n <= opt.denseMax()
	switch opt.Backing {
	case BackDense:
		dense = true
	case BackCSR:
		dense = false
	}
	if !dense {
		t.rows = interference.SparseFromWeights(n, opt.workers(n), entry)
		return t
	}
	t.dense = make([]float64, n*n)
	par.For(context.Background(), n, opt.workers(n), func(at int) {
		row := t.dense[at*n : (at+1)*n]
		for src := 0; src < n; src++ {
			row[src] = entry(at, src)
		}
	})
	return t
}

// at returns the table entry for (at, src). CSR-backed tables return
// exact 0 for dropped entries — the value they were built with.
func (t *crossTable) at(at, src int) float64 {
	if t.dense != nil {
		return t.dense[at*t.n+src]
	}
	return t.rows.At(at, src)
}

// denseRow returns the contiguous row for the receiving link, or nil
// when the table is CSR-backed. Hot loops grab the row once and index
// it directly, avoiding the per-entry bounds arithmetic of at.
func (t *crossTable) denseRow(at int) []float64 {
	if t.dense == nil {
		return nil
	}
	return t.dense[at*t.n : (at+1)*t.n]
}

// csrRow returns the stored columns and values of the receiving link's
// row (CSR backing only; call denseRow first). Columns are strictly
// ascending, so callers with an ascending source list can merge-join
// instead of binary-searching per entry.
func (t *crossTable) csrRow(at int) ([]int32, []float64) {
	return t.rows.Row(at)
}

// gather fills dst[j] with the entry for (at, srcs[j]). On a CSR
// backing an ascending srcs list is merge-joined in one pass (out-of-
// order entries fall back to a binary search), with absent entries
// reading as exact 0 — the value they were built with.
func (t *crossTable) gather(at int, srcs []int, dst []float64) {
	if row := t.denseRow(at); row != nil {
		for j, src := range srcs {
			dst[j] = row[src]
		}
		return
	}
	cols, vals := t.csrRow(at)
	k, prev := 0, -1
	for j, src := range srcs {
		if src < prev {
			dst[j] = t.rows.At(at, src)
			continue
		}
		prev = src
		for k < len(cols) && int(cols[k]) < src {
			k++
		}
		if k < len(cols) && int(cols[k]) == src {
			dst[j] = vals[k]
		} else {
			dst[j] = 0
		}
	}
}
