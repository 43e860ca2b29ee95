package interference

// ResolveFuncN returns m's slot resolver at the given intra-slot worker
// count (0 = the model's default), without its accounting.
func ResolveFuncN(m Model, workers int) func(tx []int) []bool {
	resolve, _ := m.NewResolver(workers)
	return resolve
}

// ResolveStats is slot-resolution accounting, exposed for engine
// observability (never consulted by the resolution itself): one
// resolver's own totals (Model.NewResolver) or a model's cumulative
// ones (ResolveStatsProvider).
type ResolveStats struct {
	// Workers is the intra-slot worker count the resolver uses (1 =
	// serial). Large slots shard across this many claimants; slots
	// below the parallel threshold run serially regardless.
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

// SerialStats is the accounting of a resolver that never shards and
// keeps no grid: the stats function of every such model's NewResolver.
func SerialStats() ResolveStats { return ResolveStats{Workers: 1} }

// ResolveStatsProvider is implemented by models that account their
// resolvers' activity in cumulative totals. Safe for concurrent use.
type ResolveStatsProvider interface {
	ResolveStats() ResolveStats
}

// ResolverScratch is the common per-resolver buffer set for models that
// resolve slots by per-link multiplicity counting: a counts vector, a
// first-occurrence link list, and a reusable result slice. Model
// packages build their resolvers on it so the buffer lifecycle lives in
// one place.
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
	s.Uniq = s.Uniq[:0]
	for _, e := range tx {
		if s.Counts[e] == 0 {
			s.Uniq = append(s.Uniq, e)
		}
		s.Counts[e]++
	}
	return s.out
}

// End re-zeroes the count entries touched by tx, in O(len(tx)) rather
// than O(numLinks).
func (s *ResolverScratch) End(tx []int) {
	for _, e := range tx {
		s.Counts[e] = 0
	}
}
