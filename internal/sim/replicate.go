package sim

import "dynsched/internal/stats"

// Replication is one run's headline numbers.
type Replication struct {
	Rep       int     `json:"rep"`
	Stable    bool    `json:"stable"`
	MeanQ     float64 `json:"meanQueue"`
	MaxQ      float64 `json:"maxQueue"`
	MeanLat   float64 `json:"meanLatency"`
	Delivered int64   `json:"delivered"`
	Injected  int64   `json:"injected"`
}

// ReplicateResult aggregates independent runs. Runs holds one entry per
// completed replication, sorted by replication index; a cancelled
// replication plan (Scenario.Replicate, a daemon replicate job) returns
// the completed subset alongside the error — on a parallel pool that
// subset need not be a prefix, so consumers must read Replication.Rep
// rather than assume Runs[i] is replication i.
type ReplicateResult struct {
	Runs      []Replication `json:"runs"`
	StableAll bool          `json:"stableAll"`
	MeanQ     stats.Summary `json:"meanQueue"`   // across-replication distribution of mean queue
	MeanLat   stats.Summary `json:"meanLatency"` // across-replication distribution of mean latency
}

// ReplicationOf summarises one completed run as its replication row.
// It is the single definition of which headline numbers a replication
// carries — every replication aggregate is assembled from it.
func ReplicationOf(rep int, res *Result) Replication {
	return Replication{
		Rep:       rep,
		Stable:    res.Verdict.Stable,
		MeanQ:     res.Queue.MeanV(),
		MaxQ:      res.Queue.MaxV(),
		MeanLat:   res.Latency.Mean(),
		Delivered: res.Delivered,
		Injected:  res.Injected,
	}
}

// Accumulate folds one completed replication into the aggregate.
// Callers fold rows in replication order starting from a result with
// StableAll == true (the vacuous truth over zero runs).
func (r *ReplicateResult) Accumulate(run Replication) {
	r.Runs = append(r.Runs, run)
	r.StableAll = r.StableAll && run.Stable
	r.MeanQ.Add(run.MeanQ)
	r.MeanLat.Add(run.MeanLat)
}

// SubSeed derives the seed of shard i from a base seed via a SplitMix64
// step, giving well-separated streams even for adjacent bases and
// shards — the per-shard RNGs the parallel runners build from these
// share no state. The mapping is a fixed pure function: the same
// (base, shard) pair always names the same stream, which is what makes
// serial and parallel runs bit-identical.
func SubSeed(base int64, shard int) int64 {
	z := uint64(base) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
