package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"dynsched/internal/geom"
	"dynsched/internal/netgraph"
	"dynsched/internal/sinr"
)

// E15SpatialScale measures the tentpole guarantee of the spatially-
// indexed interference backing: the work a slot resolution performs per
// transmission follows local density, not the network size. The metric
// is deterministic — for every transmission the experiment counts the
// concurrent senders inside the ε-radius r(ε) = (p_max·β/(ε·S))^{1/α},
// the set the indexed resolver sums exactly (everything beyond is
// charged through per-cell aggregates and the closed-form far-field
// bound). The flat table, by contrast, touches every one of the k
// concurrent transmitters per receiver. Every instance keeps density
// constant (area ∝ n) and every slot activates the same fraction of
// links, so across rows the only change is the network size. Wall-clock
// numbers live in BenchmarkSlotResolve100k/1M; experiment tables must
// stay bit-identical across runs and pool sizes.
//
// Correctness rides along where the O(n²) table is affordable: ε = 0
// must agree with the flat path exactly, and the ε > 0 resolver must
// never report a success the exact SINR test rejects.
func E15SpatialScale(ctx context.Context, scale Scale, seed int64) (*Table, error) {
	sizes := []int{512, 2048}
	exactMax := 2048 // largest n for which the O(n²) table is built
	slots := 40
	if scale == Full {
		sizes = []int{4096, 16384, 65536, 262144}
		exactMax = 4096
		slots = 60
	}
	const eps = 0.05

	tbl := &Table{
		ID:    "E15",
		Title: "Spatially-indexed slot resolution: exact-summation work per transmission vs network size",
		Claim: "with a contribution floor ε the indexed backing sums only the senders within r(ε) — " +
			"a local-density constant — while the flat table touches all k concurrent transmitters",
		Columns: []string{"links", "active k", "near/tx (ε=0.05)", "flat terms/tx", "work ratio", "success", "agree ε=0"},
	}

	for _, n := range sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(n)))
		side := 10 * math.Sqrt(float64(n))
		g := netgraph.RandomPairs(rng, n, side, 1, 4)
		prm := sinr.DefaultParams()
		powers, err := sinr.Powers(g, prm, sinr.PowerUniform, 1)
		if err != nil {
			return nil, err
		}
		prm.Noise = sinr.MaxNoise(g, prm, powers, 0.5)
		indexed, err := sinr.NewFixedPowerOpts(g, prm, powers, sinr.WeightMonotone,
			sinr.Options{Backing: sinr.BackIndexed, FarFloor: eps})
		if err != nil {
			return nil, err
		}
		pmax := 0.0
		for _, p := range powers {
			pmax = math.Max(pmax, p)
		}

		// The slot workload: each slot activates a fixed 1/16 of the
		// links, so per-slot load per transmission is comparable across
		// sizes.
		k := n / 16
		slotTx := make([][]int, slots)
		for s := range slotTx {
			slotTx[s] = rng.Perm(n)[:k]
		}

		resolve, _ := indexed.NewResolver(0)
		successes := 0
		nearTotal := 0
		sendPts := make([]geom.Point, k)
		var within, ring []int32
		for _, tx := range slotTx {
			for _, ok := range resolve(tx) {
				if ok {
					successes++
				}
			}
			// Replay the resolver's truncation geometry: senders within
			// r(ε) of each receiver are summed exactly; the remainder is
			// covered by cell aggregates plus the far-field bound.
			for i, e := range tx {
				sendPts[i] = g.Pos(g.Link(netgraph.LinkID(e)).From)
			}
			grid := geom.NewGridIndex(sendPts, side/math.Sqrt(float64(k)))
			for _, e := range tx {
				link := g.Link(netgraph.LinkID(e))
				signal := powers[e] / math.Pow(g.LinkDist(link.ID), prm.Alpha)
				rex := math.Pow(pmax*prm.Beta/(eps*signal), 1/prm.Alpha)
				within, ring = grid.Within(g.Pos(link.To), rex, sendPts, within[:0], ring)
				nearTotal += len(within)
			}
		}
		nearPerTx := float64(nearTotal) / float64(slots*k)
		succRate := float64(successes) / float64(slots*k)

		agreeCell := "-"
		if n <= exactMax {
			flat, err := sinr.NewFixedPowerOpts(g, prm, powers, sinr.WeightMonotone,
				sinr.Options{Backing: sinr.BackCSR})
			if err != nil {
				return nil, err
			}
			zero, err := sinr.NewFixedPowerOpts(g, prm, powers, sinr.WeightMonotone,
				sinr.Options{Backing: sinr.BackIndexed})
			if err != nil {
				return nil, err
			}
			rZero, _ := zero.NewResolver(0)
			rFlat, _ := flat.NewResolver(0)
			rIdx, _ := indexed.NewResolver(0)
			for _, tx := range slotTx {
				wantV, zeroV, idxV := rFlat(tx), rZero(tx), rIdx(tx)
				for i := range tx {
					if zeroV[i] != wantV[i] {
						return nil, fmt.Errorf("E15: ε=0 indexed diverged from the flat path at n=%d link %d", n, tx[i])
					}
					if idxV[i] && !wantV[i] {
						return nil, fmt.Errorf("E15: ε=%g reported a false success at n=%d link %d", eps, n, tx[i])
					}
				}
			}
			agreeCell = "true"
		}
		tbl.AddRow(fmtI(n), fmtI(k), fmtF1(nearPerTx), fmtI(k),
			fmtF1(float64(k)/math.Max(nearPerTx, 1)), fmtF(succRate), agreeCell)
	}
	tbl.AddNote("near/tx counts the concurrent senders inside r(ε) — the exact-summation set; "+
		"the indexed resolver additionally reads O(cells) aggregates for the far field (ε=%g)", eps)
	tbl.AddNote("flat terms/tx is the per-receiver cost of the precomputed table path: one add per concurrent transmitter")
	tbl.AddNote("'-' marks sizes where the O(n²) comparator table is impractical; wall-clock numbers: BenchmarkSlotResolve100k/1M")
	return tbl, nil
}
