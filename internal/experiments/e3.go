package experiments

import (
	"context"
	"fmt"

	"dynsched/internal/core"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/plan"
	"dynsched/internal/sim"
	"dynsched/internal/static"
)

// E3Latency reproduces Theorem 8: the expected latency of a packet with
// path length d is O(d·T). Workload: a line network under the identity
// (packet-routing) model with paths of doubling hop counts; the table
// reports latency/(d·T), which the theorem predicts to be a constant
// (≈ 1, since an unfailed packet takes one hop per frame).
func E3Latency(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	hops := []int{1, 2, 4, 8, 16}
	slots := int64(120000)
	if scale == Quick {
		hops = []int{1, 2, 4, 8}
		slots = 30000
	}
	maxHops := hops[len(hops)-1]
	g := netgraph.LineNetwork(maxHops+1, 1)
	model := interference.Identity{Links: g.NumLinks()}
	inst := netgraph.NewInstance(g, maxHops)
	const lambda = 0.3

	reps := 4
	if scale == Quick {
		reps = 2
	}

	tbl := &Table{
		ID:    "E3",
		Title: "Packet latency vs path length (dynamic protocol, identity model)",
		Claim: "Thm 8: E[latency] = O(d·T) — the normalized column latency/(d·T) stays constant",
		Columns: []string{
			"d (hops)", "T (frame)", "mean latency", "± std (reps)", "latency/(d·T)",
		},
	}

	for _, d := range hops {
		path, ok := netgraph.ShortestPath(g, 0, netgraph.NodeID(d))
		if !ok {
			continue
		}
		// The frame length is deterministic in the configuration; solve it
		// once up front (the replications run concurrently).
		frameT, err := core.SolveFrameLength(static.FullParallel{}, model.NumLinks(), inst.M(), lambda, 0.25)
		if err != nil {
			return nil, err
		}
		// One planner unit per replication, each at its own derived seed,
		// folded back in replication order.
		units := make([]plan.Unit, reps)
		for r := range units {
			units[r] = plan.Unit{Index: r, Label: fmt.Sprintf("d=%d rep %d", d, r)}
		}
		out, err := plan.Execute(ctx, units, plan.Options[sim.Replication]{}, func(uctx context.Context, u plan.Unit) (sim.Replication, error) {
			repSeed := sim.SubSeed(seed+int64(d), u.Index)
			proto, err := core.New(core.Config{
				Model: model, Alg: static.FullParallel{}, M: inst.M(),
				Lambda: lambda, Eps: 0.25, Seed: repSeed,
			})
			if err != nil {
				return sim.Replication{}, err
			}
			proc, err := multiHopGenerators(model, []netgraph.Path{path}, lambda)
			if err != nil {
				return sim.Replication{}, err
			}
			res, err := sim.Run(uctx, sim.Config{Slots: slots, Seed: repSeed, WarmupFrac: 0.2}, model, proc, proto)
			if err != nil {
				return sim.Replication{}, err
			}
			return sim.ReplicationOf(u.Index, res), nil
		})
		if err != nil {
			return nil, err
		}
		rep := &sim.ReplicateResult{StableAll: true}
		for _, run := range out.Values {
			rep.Accumulate(run)
		}
		mean := rep.MeanLat.Mean()
		tbl.AddRow(
			fmtI(d), fmtI(frameT),
			fmtF1(mean), fmtF1(rep.MeanLat.Std()),
			fmtF(mean/(float64(d)*float64(frameT))),
		)
	}
	tbl.AddNote("each row aggregates %d independent replications (mean ± across-replication std)", reps)
	tbl.AddNote("a packet waits for the next frame and then crosses one hop per frame; " +
		"the constant includes the initial wait, so values slightly above 1 are expected for small d")
	return tbl, nil
}
