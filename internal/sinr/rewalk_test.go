package sinr

import (
	"testing"

	"dynsched/internal/geom"
)

// TestIndexedRewalksAtThreshold: at odd α the cheap certified tail
// cannot decide a receiver whose signal sits on the finished estimate's
// threshold, so checkTies' probes at α = 3 must re-walk at least once —
// the exact fallback is live code — and every re-walk is counted on the
// scratch that made it and on the model. (checkTies also compares each
// probe's verdict with the full walk.)
func TestIndexedRewalksAtThreshold(t *testing.T) {
	var total uint64
	for _, eps := range []float64{0.1, 0.5, 0.9} {
		for _, off := range []geom.Point{{}, {X: 0x1p30, Y: -0x1p30}} {
			for d := 1; d <= 6; d++ {
				for k := 2; k <= 6; k++ {
					g := stackNetwork(d, k, off)
					prm := Params{Alpha: 3, Beta: 1.5, Noise: 1e-10}
					powers, err := Powers(g, prm, PowerUniform, 1)
					if err != nil {
						t.Fatal(err)
					}
					opt := indexedOpts(eps)
					opt.CellSize = 1
					m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, opt)
					if err != nil {
						t.Fatal(err)
					}
					tx := make([]int, k+1)
					for i := range tx {
						tx[i] = i
					}
					sc := gridSlot(m, tx)
					before := sc.rewalks.Load()
					checkTies(t, m, sc, 0)
					got := sc.rewalks.Load() - before
					endGridSlot(sc, tx)
					if st := m.ResolveStats(); st.Rewalks != got {
						t.Fatalf("model counts %d re-walks, its one scratch %d", st.Rewalks, got)
					}
					total += got
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no threshold probe at α = 3 re-walked: the exact fallback never ran")
	}
	t.Logf("%d re-walks", total)
}
