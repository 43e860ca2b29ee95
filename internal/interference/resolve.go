package interference

// SlotResolver is an optional Model extension for hot simulation loops.
// NewResolver returns a function with the exact semantics of Successes,
// but the resolver may reuse internal buffers across calls: the
// returned slice is valid only until the next invocation and must not
// be retained. A resolver is stateful scratch, not shared state — each
// goroutine (simulation shard) must obtain its own.
type SlotResolver interface {
	NewResolver() func(tx []int) []bool
}

// ResolveFunc returns the cheapest slot-resolution function for m: the
// model's buffer-reusing resolver when it implements SlotResolver, or
// its plain Successes method otherwise. The contract on the returned
// slice matches SlotResolver (valid until the next call).
func ResolveFunc(m Model) func(tx []int) []bool {
	if sr, ok := m.(SlotResolver); ok {
		return sr.NewResolver()
	}
	return m.Successes
}

// ParallelResolver is an optional extension of SlotResolver for models
// whose slot resolution can fan the per-link work across an intra-slot
// worker pool. NewResolverN returns a resolver pinned to the given
// worker count (≥ 1; 1 means strictly serial). Implementations must be
// bit-identical to the serial resolver at every worker count — per-link
// work may be sharded, but each link's result must be produced by
// exactly the serial operation sequence.
type ParallelResolver interface {
	SlotResolver
	NewResolverN(workers int) func(tx []int) []bool
}

// ResolveFuncN is ResolveFunc with an explicit intra-slot worker-count
// override: workers = 0 defers to the model's own default (ResolveFunc),
// workers ≥ 1 requests that many workers from models implementing
// ParallelResolver. Models without intra-slot parallelism ignore the
// override — results are bit-identical either way, only wall-clock
// changes.
func ResolveFuncN(m Model, workers int) func(tx []int) []bool {
	if workers >= 1 {
		if pr, ok := m.(ParallelResolver); ok {
			return pr.NewResolverN(workers)
		}
	}
	return ResolveFunc(m)
}

// ResolveStats is slot-resolution accounting, exposed for engine
// observability (never consulted by the resolution itself): a model's
// cumulative totals (ResolveStatsProvider) or one resolver's own
// (StatsResolver).
type ResolveStats struct {
	// Workers is the intra-slot worker count the model's default
	// resolver uses (1 = serial). Large slots shard across this many
	// claimants; slots below the parallel threshold run serially
	// regardless.
	Workers int
	// GridRebuilds counts slots whose spatial interference grid was
	// rebuilt from scratch; GridDeltaUpdates counts slots served by the
	// incremental joined/left delta path. Both stay zero for models
	// without a spatial grid.
	GridRebuilds     uint64
	GridDeltaUpdates uint64
	// Rewalks counts indexed SINR verdicts whose cheap certified
	// far-cell tail could not decide them, so the receiver was walked
	// again with exact powers. Zero for models without that tail.
	Rewalks uint64
}

// ResolveStatsProvider is implemented by models that account their
// resolver activity. Safe for concurrent use.
type ResolveStatsProvider interface {
	ResolveStats() ResolveStats
}

// StatsResolver is implemented by models whose resolvers account their
// own work. NewStatsResolver returns the resolver ResolveFuncN(m,
// workers) would, together with a function reporting that resolver's
// ResolveStats alone — so runs that share one model each read only
// their own slots' grid work. The stats function must be called from
// the resolver's goroutine.
type StatsResolver interface {
	NewStatsResolver(workers int) (resolve func(tx []int) []bool, stats func() ResolveStats)
}

// RunResolver returns a run's slot resolver, ResolveFuncN(m, workers),
// with a function reporting its own accounting: the model's
// StatsResolver when it has one; otherwise the worker count (the
// requested one, or the model's default for workers = 0) and no grid
// work.
func RunResolver(m Model, workers int) (func(tx []int) []bool, func() ResolveStats) {
	if sr, ok := m.(StatsResolver); ok {
		return sr.NewStatsResolver(workers)
	}
	st := ResolveStats{Workers: max(workers, 1)}
	if sp, ok := m.(ResolveStatsProvider); ok && workers < 1 {
		st.Workers = sp.ResolveStats().Workers
	}
	return ResolveFuncN(m, workers), func() ResolveStats { return st }
}

// ResolverScratch is the common per-resolver buffer set for models that
// resolve slots by per-link multiplicity counting: a counts vector, a
// first-occurrence link list, and a reusable result slice. Model
// packages build their SlotResolver implementations on it so the
// buffer lifecycle lives in one place.
type ResolverScratch struct {
	// Counts is the per-link multiplicity of the current slot's tx,
	// valid between Begin and End.
	Counts []int
	// Uniq lists the distinct transmitting links in first-occurrence
	// order, valid between Begin and End.
	Uniq []int
	out  []bool
}

// NewResolverScratch creates scratch for a model with numLinks links.
func NewResolverScratch(numLinks int) *ResolverScratch {
	return &ResolverScratch{Counts: make([]int, numLinks), Uniq: make([]int, 0, numLinks)}
}

// Begin counts the multiplicity of each transmitting link, collects the
// distinct links, and returns a zeroed result slice of len(tx). The
// caller must pair it with End.
func (s *ResolverScratch) Begin(tx []int) []bool {
	if cap(s.out) < len(tx) {
		s.out = make([]bool, len(tx), 2*len(tx))
	}
	s.out = s.out[:len(tx)]
	for i := range s.out {
		s.out[i] = false
	}
	s.Count(tx)
	return s.out
}

// Count fills Counts and Uniq for tx without touching the result buffer
// — for callers (such as a model's Successes slow path) that own their
// output slice but still want the shared counting scratch. Pair with
// End, exactly like Begin.
func (s *ResolverScratch) Count(tx []int) {
	s.Uniq = s.Uniq[:0]
	for _, e := range tx {
		if s.Counts[e] == 0 {
			s.Uniq = append(s.Uniq, e)
		}
		s.Counts[e]++
	}
}

// End re-zeroes the count entries touched by tx, in O(len(tx)) rather
// than O(numLinks).
func (s *ResolverScratch) End(tx []int) {
	for _, e := range tx {
		s.Counts[e] = 0
	}
}
