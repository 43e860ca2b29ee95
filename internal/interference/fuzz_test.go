package interference

import (
	"math"
	"testing"
)

// FuzzMeasure drives Measure/MeasureAt with arbitrary request vectors on
// a fixed weighted model and checks the defining invariants: the
// measure is non-negative, dominates every per-link component, is zero
// iff the vector is empty, and scales linearly.
func FuzzMeasure(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(3), uint8(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(250), uint8(1), uint8(9), uint8(255))

	d := NewDense("fuzz", 4)
	weights := []float64{0.1, 0.4, 0.9, 0.25, 0.6, 0.05}
	k := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := d.Set(i, j, weights[k%len(weights)]); err != nil {
				f.Fatal(err)
			}
			k++
		}
	}

	f.Fuzz(func(t *testing.T, a, b, c, e uint8) {
		r := []int{int(a % 16), int(b % 16), int(c % 16), int(e % 16)}
		meas := Measure(d, r)
		if meas < 0 || math.IsNaN(meas) {
			t.Fatalf("measure %v for %v", meas, r)
		}
		total := 0
		for link, cnt := range r {
			total += cnt
			if at := MeasureAt(d, r, link); at > meas+1e-9 {
				t.Fatalf("component %v at link %d exceeds measure %v", at, link, meas)
			}
			// The diagonal is 1, so the measure dominates every count.
			if float64(cnt) > meas+1e-9 {
				t.Fatalf("count %d at link %d exceeds measure %v", cnt, link, meas)
			}
		}
		if total == 0 && meas != 0 {
			t.Fatalf("empty vector has measure %v", meas)
		}
		// Linearity: doubling the vector doubles the measure.
		r2 := []int{2 * r[0], 2 * r[1], 2 * r[2], 2 * r[3]}
		if m2 := Measure(d, r2); math.Abs(m2-2*meas) > 1e-6*(1+meas) {
			t.Fatalf("doubling broke linearity: %v vs 2×%v", m2, meas)
		}
	})
}

// FuzzSuccessesInvariants checks the slot-resolution contracts on
// arbitrary transmission lists: result length matches, duplicates never
// succeed, and the MAC model never admits two successes.
func FuzzSuccessesInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{3, 3})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})

	id := Identity{Links: 4}
	mac := AllOnes{Links: 4}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		tx := make([]int, len(raw))
		counts := make(map[int]int)
		for i, b := range raw {
			tx[i] = int(b % 4)
			counts[tx[i]]++
		}
		for _, m := range []Model{id, mac} {
			resolve, _ := m.NewResolver(1)
			out := resolve(tx)
			if len(out) != len(tx) {
				t.Fatalf("%s: %d results for %d attempts", m.Name(), len(out), len(tx))
			}
			okCount := 0
			for i, ok := range out {
				if ok {
					okCount++
					if counts[tx[i]] > 1 {
						t.Fatalf("%s: duplicate attempt on link %d succeeded", m.Name(), tx[i])
					}
				}
			}
			if _, isMAC := m.(AllOnes); isMAC && okCount > 1 {
				t.Fatalf("MAC admitted %d successes", okCount)
			}
		}
	})
}
