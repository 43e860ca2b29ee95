package interference

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityModel(t *testing.T) {
	m := Identity{Links: 3}
	if err := ValidateWeights(m); err != nil {
		t.Fatal(err)
	}
	// Measure equals congestion.
	r := []int{2, 0, 5}
	if got := Measure(m, r); got != 5 {
		t.Errorf("Measure = %v, want 5", got)
	}
	// All distinct links succeed simultaneously.
	resolve, _ := m.NewResolver(1)
	s := resolve([]int{0, 1, 2})
	for i, ok := range s {
		if !ok {
			t.Errorf("tx %d failed under identity", i)
		}
	}
	// Duplicate attempts on one link all fail; others unaffected.
	s = resolve([]int{0, 0, 1})
	if s[0] || s[1] || !s[2] {
		t.Errorf("duplicate handling wrong: %v", s)
	}
}

func TestAllOnesModel(t *testing.T) {
	m := AllOnes{Links: 4}
	if err := ValidateWeights(m); err != nil {
		t.Fatal(err)
	}
	// Measure is the total packet count.
	if got := Measure(m, []int{1, 2, 0, 3}); got != 6 {
		t.Errorf("Measure = %v, want 6", got)
	}
	resolve, _ := m.NewResolver(1)
	if s := resolve([]int{2}); !s[0] {
		t.Error("lone transmission failed on MAC")
	}
	if s := resolve([]int{1, 2}); s[0] || s[1] {
		t.Error("simultaneous transmissions succeeded on MAC")
	}
	if s := resolve(nil); len(s) != 0 {
		t.Error("empty slot produced successes")
	}
}

func TestDenseModel(t *testing.T) {
	d := NewDense("test", 3)
	if err := d.Set(0, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := d.Set(0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ValidateWeights(d); err != nil {
		t.Fatal(err)
	}
	// Link 0 fails when links 1 and 2 both transmit (0.6+0.5 ≥ 1) but
	// succeeds with either alone.
	resolve, _ := d.NewResolver(1)
	s := resolve([]int{0, 1, 2})
	if s[0] {
		t.Error("link 0 should fail under combined interference")
	}
	if !s[1] || !s[2] {
		t.Error("links 1,2 should succeed (no incoming weight)")
	}
	s = resolve([]int{0, 1})
	if !s[0] || !s[1] {
		t.Errorf("pairwise slot should succeed: %v", s)
	}

	// Error cases.
	if err := d.Set(0, 0, 0.5); err == nil {
		t.Error("diagonal overwrite accepted")
	}
	if err := d.Set(0, 1, 1.5); err == nil {
		t.Error("weight > 1 accepted")
	}
	if err := d.Set(5, 0, 0.5); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestMeasureAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		d := NewDense("rand", n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					if err := d.Set(i, j, rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		r := make([]int, n)
		for i := range r {
			r[i] = rng.Intn(4)
		}
		want := 0.0
		for e := 0; e < n; e++ {
			sum := 0.0
			for e2 := 0; e2 < n; e2++ {
				sum += d.Weight(e, e2) * float64(r[e2])
			}
			want = math.Max(want, sum)
		}
		if got := Measure(d, r); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Measure = %v, brute force = %v", got, want)
		}
	}
}

func TestMeasureSubadditivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 5
	d := NewDense("prop", n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := d.Set(i, j, rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	f := func(raw1, raw2 [5]uint8) bool {
		r1 := make([]int, n)
		r2 := make([]int, n)
		sum := make([]int, n)
		for i := 0; i < n; i++ {
			r1[i] = int(raw1[i] % 8)
			r2[i] = int(raw2[i] % 8)
			sum[i] = r1[i] + r2[i]
		}
		total := Measure(d, sum)
		parts := Measure(d, r1) + Measure(d, r2)
		return total <= parts+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureVecMatchesIntegerMeasure(t *testing.T) {
	m := AllOnes{Links: 3}
	r := []int{1, 2, 3}
	f := []float64{1, 2, 3}
	if a, b := Measure(m, r), MeasureVec(m, f); math.Abs(a-b) > 1e-12 {
		t.Errorf("Measure=%v MeasureVec=%v", a, b)
	}
}

func TestMeasurePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Measure(Identity{Links: 3}, []int{1})
}

func TestSlotFeasible(t *testing.T) {
	resolve, _ := Identity{Links: 3}.NewResolver(1)
	if !SlotFeasible(resolve, []int{0, 1}) {
		t.Error("distinct identity links judged infeasible")
	}
	if SlotFeasible(resolve, []int{0, 0}) {
		t.Error("duplicate slot judged feasible")
	}
	if SlotFeasible(resolve, nil) {
		t.Error("empty slot judged feasible")
	}
}

func TestLossyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inner := Identity{Links: 2}
	l := &Lossy{Inner: inner, P: 0.5, Rand: rng.Float64}
	if err := ValidateWeights(l); err != nil {
		t.Fatal(err)
	}
	succ, total := 0, 2000
	resolve, _ := l.NewResolver(1)
	for i := 0; i < total; i++ {
		if s := resolve([]int{0}); s[0] {
			succ++
		}
	}
	frac := float64(succ) / float64(total)
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("lossy success fraction %v, want ≈0.5", frac)
	}
	// p = 0 must be transparent.
	clean := &Lossy{Inner: inner, P: 0, Rand: rng.Float64}
	resolveClean, _ := clean.NewResolver(1)
	if s := resolveClean([]int{0, 1}); !s[0] || !s[1] {
		t.Error("lossless wrapper dropped transmissions")
	}
}
