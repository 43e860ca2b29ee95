package sinr

import (
	"fmt"
	"math"

	"dynsched/internal/par"
)

// Backing selects how a model stores its cross-link tables and resolves
// slot interference.
type Backing int

const (
	// BackAuto picks per size: dense tables up to the dense cap, CSR
	// above it — the historical behavior.
	BackAuto Backing = iota
	// BackDense forces the flat row-major table (O(n²) memory).
	BackDense
	// BackCSR forces the compressed-sparse-row table.
	BackCSR
	// BackIndexed skips cross tables entirely and resolves slots through
	// a spatial grid index: exact summation over near interferers plus a
	// rigorous far-field aggregation bound for the remainder. With
	// FarFloor = 0 the resolver sums every interferer exactly, in the
	// same order as the table paths — bit-identical results with O(n)
	// memory instead of O(n²).
	BackIndexed
)

// String names the backing the way run diagnostics report it.
func (b Backing) String() string {
	switch b {
	case BackDense:
		return "dense"
	case BackCSR:
		return "csr"
	case BackIndexed:
		return "indexed"
	default:
		return "auto"
	}
}

// ParseBacking resolves a diagnostic/spec name into a Backing.
func ParseBacking(s string) (Backing, error) {
	switch s {
	case "", "auto":
		return BackAuto, nil
	case "dense":
		return BackDense, nil
	case "csr":
		return BackCSR, nil
	case "indexed":
		return BackIndexed, nil
	default:
		return 0, fmt.Errorf("sinr: unknown table backing %q (want auto, dense, csr, or indexed)", s)
	}
}

// Options tune a model's storage and resolution strategy without
// changing its physical semantics beyond the documented ε envelope.
// The zero value reproduces the historical behavior exactly.
type Options struct {
	// Backing selects the cross-table storage / resolution strategy.
	Backing Backing
	// DenseMaxLinks overrides the dense-vs-CSR switchover link count for
	// BackAuto (0 keeps the built-in crossDenseMaxLinks cap).
	DenseMaxLinks int
	// FarFloor is the contribution floor ε of the indexed backing: an
	// interferer whose individual affectance on the tested link is below
	// ε is never summed term by term; it is covered by a per-cell
	// aggregate or the far-field remainder bound instead. The resolver
	// stays sound — the bounded interference estimate Î always satisfies
	// Î ≥ I_true, so every reported success is a true SINR success; only
	// links whose SINR margin is within β·tail of the threshold can flip
	// from success to failure. ε = 0 disables approximation entirely:
	// the indexed resolver then sums all interferers in the table paths'
	// order and is bit-identical to them.
	FarFloor float64
	// CellSize overrides the spatial grid's cell side length (0 sizes
	// cells automatically to ≈1 point per cell).
	CellSize float64
	// Parallelism is the worker count of the model's construction (the
	// cross tables and analysis-matrix builds) and of its default
	// resolvers: 0 picks GOMAXPROCS, 1 forces strictly serial
	// construction and resolution, n uses n workers. Results are
	// bit-identical at every setting — the knob trades wall-clock only —
	// so it is an execution option, not part of a scenario's physical
	// identity.
	Parallelism int
}

// validate rejects option values with no defined semantics.
func (o Options) validate() error {
	if o.DenseMaxLinks < 0 {
		return fmt.Errorf("sinr: negative DenseMaxLinks %d", o.DenseMaxLinks)
	}
	if math.IsNaN(o.FarFloor) || math.IsInf(o.FarFloor, 0) || o.FarFloor < 0 || o.FarFloor >= 1 {
		return fmt.Errorf("sinr: FarFloor %v outside [0, 1)", o.FarFloor)
	}
	if math.IsNaN(o.CellSize) || math.IsInf(o.CellSize, 0) || o.CellSize < 0 {
		return fmt.Errorf("sinr: invalid CellSize %v", o.CellSize)
	}
	if o.FarFloor > 0 && o.Backing != BackIndexed {
		return fmt.Errorf("sinr: FarFloor %v requires the indexed backing", o.FarFloor)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("sinr: negative Parallelism %d", o.Parallelism)
	}
	return nil
}

// workers resolves Parallelism for a model of n links.
func (o Options) workers(n int) int { return par.Workers(o.Parallelism, n) }

// denseMax resolves the effective dense-table cap.
func (o Options) denseMax() int {
	if o.DenseMaxLinks > 0 {
		return o.DenseMaxLinks
	}
	return crossDenseMaxLinks
}

// TableInfo reports the construction-time choices a model made — which
// table backing it uses and with which knobs — so runs can surface them
// in diagnostics.
type TableInfo struct {
	// Backing is "dense", "csr", or "indexed".
	Backing string `json:"backing"`
	// DenseMaxLinks is the dense-vs-CSR switchover in effect.
	DenseMaxLinks int `json:"denseMaxLinks"`
	// FarFloor is the indexed backing's contribution floor ε.
	FarFloor float64 `json:"farFloor,omitempty"`
	// CellSize is the explicit spatial cell size (0 = automatic).
	CellSize float64 `json:"cellSize,omitempty"`
}

// tableInfo derives the diagnostic record for a resolved backing.
func (o Options) tableInfo(n int) TableInfo {
	info := TableInfo{DenseMaxLinks: o.denseMax()}
	switch o.Backing {
	case BackIndexed:
		info.Backing = "indexed"
		info.FarFloor = o.FarFloor
		info.CellSize = o.CellSize
	case BackDense:
		info.Backing = "dense"
	case BackCSR:
		info.Backing = "csr"
	default:
		if n <= o.denseMax() {
			info.Backing = "dense"
		} else {
			info.Backing = "csr"
		}
	}
	return info
}
