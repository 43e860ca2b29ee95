package interference

import (
	"math"
	"math/rand"
	"testing"
)

// denseMeasure is the reference O(E²) evaluation via Weight calls only,
// bypassing every fast path.
func denseMeasure(m Model, r []int) float64 {
	best := 0.0
	for e := 0; e < m.NumLinks(); e++ {
		sum := 0.0
		for e2, cnt := range r {
			if cnt == 0 {
				continue
			}
			sum += m.Weight(e, e2) * float64(cnt)
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// randomDense builds a Dense model with random sparse-ish weights.
func randomDense(t *testing.T, rng *rand.Rand, n int, p float64) *Dense {
	t.Helper()
	d := NewDense("rand", n)
	for e := 0; e < n; e++ {
		for e2 := 0; e2 < n; e2++ {
			if e != e2 && rng.Float64() < p {
				if err := d.Set(e, e2, rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return d
}

func randomRequests(rng *rand.Rand, n int) []int {
	r := make([]int, n)
	for e := range r {
		if rng.Intn(2) == 0 {
			r[e] = rng.Intn(5)
		}
	}
	return r
}

func TestSparseMeasureMatchesDenseBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []Model{
		Identity{Links: 17},
		AllOnes{Links: 17},
		randomDense(t, rng, 17, 0.3),
		randomDense(t, rng, 17, 0.9),
	}
	for _, m := range models {
		for trial := 0; trial < 50; trial++ {
			r := randomRequests(rng, m.NumLinks())
			want := denseMeasure(m, r)
			if got := Measure(m, r); got != want {
				t.Errorf("%s: Measure = %v, dense reference = %v (must be bit-identical)", m.Name(), got, want)
			}
			s := SparseFromModel(m)
			if got := s.MulInfNorm(r); got != want {
				t.Errorf("%s: sparse MulInfNorm = %v, dense reference = %v", m.Name(), got, want)
			}
			for e := 0; e < m.NumLinks(); e++ {
				if got, ref := MeasureAt(m, r, e), s.RowDot(e, r); got != ref {
					t.Fatalf("%s: MeasureAt(%d) = %v, sparse row dot = %v", m.Name(), e, got, ref)
				}
			}
		}
	}
}

func TestSparseStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randomDense(t, rng, 12, 0.25)
	s := SparseFromModel(d)
	if s.NumLinks() != 12 {
		t.Fatalf("NumLinks = %d", s.NumLinks())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	nnz := 0
	for e := 0; e < 12; e++ {
		for e2 := 0; e2 < 12; e2++ {
			if d.Weight(e, e2) != 0 {
				nnz++
			}
			if got := s.At(e, e2); got != d.Weight(e, e2) {
				t.Fatalf("At(%d,%d) = %v, want %v", e, e2, got, d.Weight(e, e2))
			}
		}
	}
	if s.NNZ() != nnz {
		t.Fatalf("NNZ = %d, want %d", s.NNZ(), nnz)
	}
	// Transposing twice is the identity.
	tt := s.Transpose().Transpose()
	for e := 0; e < 12; e++ {
		for e2 := 0; e2 < 12; e2++ {
			if s.At(e, e2) != tt.At(e, e2) {
				t.Fatalf("double transpose changed (%d,%d)", e, e2)
			}
		}
	}
	// Transpose swaps indices.
	st := s.Transpose()
	for e := 0; e < 12; e++ {
		for e2 := 0; e2 < 12; e2++ {
			if s.At(e, e2) != st.At(e2, e) {
				t.Fatalf("transpose mismatch at (%d,%d)", e, e2)
			}
		}
	}
}

func TestSparseMeasureVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randomDense(t, rng, 9, 0.4)
	f := make([]float64, 9)
	for i := range f {
		f[i] = rng.Float64()
	}
	got := MeasureVec(d, f)
	// Reference via Weight calls only.
	best := 0.0
	for e := 0; e < 9; e++ {
		sum := 0.0
		for e2, v := range f {
			if v != 0 {
				sum += d.Weight(e, e2) * v
			}
		}
		if sum > best {
			best = sum
		}
	}
	if got != best {
		t.Fatalf("MeasureVec = %v, reference = %v", got, best)
	}
}

func TestIncrementalMeasureTracksFreshEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := []Model{
		Identity{Links: 13},
		AllOnes{Links: 13},
		randomDense(t, rng, 13, 0.35),
	}
	for _, m := range models {
		im := NewIncremental(m)
		r := make([]int, m.NumLinks())
		for step := 0; step < 400; step++ {
			e := rng.Intn(m.NumLinks())
			if r[e] > 0 && rng.Intn(3) == 0 {
				r[e]--
				im.RemoveN(e, 1)
			} else {
				r[e]++
				im.AddN(e, 1)
			}
			if got, want := im.Measure(), Measure(m, r); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s step %d: incremental %v, fresh %v", m.Name(), step, got, want)
			}
		}
		// Resync must not change the (exactly tracked) integer state and
		// must agree with the fresh evaluation exactly.
		im.Resync()
		if got, want := im.Measure(), Measure(m, r); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: after Resync incremental %v, fresh %v", m.Name(), got, want)
		}
	}
}

func TestIncrementalMeasureRemoveUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveN on empty link did not panic")
		}
	}()
	NewIncremental(Identity{Links: 3}).RemoveN(1, 1)
}

// TestSparseFromRowsAcrossBlocksAndWorkers assembles a matrix spanning
// several row blocks, with empty rows and dropped zeros, and requires
// the same entries at every worker count — and a panic for an emitter
// whose columns are not strictly ascending.
func TestSparseFromRowsAcrossBlocksAndWorkers(t *testing.T) {
	const n = 2*assembleBlockRows + 37
	weight := func(e, e2 int) float64 {
		if e%7 == 3 || (e*31+e2*17)%5 != 0 {
			return 0 // row e%7 == 3 stays empty; the rest are sparse
		}
		return float64(e+1) / float64(e2+2)
	}
	want := SparseFromWeights(n, 1, weight)
	for _, workers := range []int{1, 2, 4, 0} {
		got := SparseFromWeights(n, workers, weight)
		if got.NNZ() != want.NNZ() {
			t.Fatalf("workers=%d: NNZ %d, serial %d", workers, got.NNZ(), want.NNZ())
		}
		for e := 0; e < n; e++ {
			gc, gv := got.Row(e)
			wc, wv := want.Row(e)
			if len(gc) != len(wc) {
				t.Fatalf("workers=%d row %d: %d entries, serial %d", workers, e, len(gc), len(wc))
			}
			for k := range gc {
				if gc[k] != wc[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
					t.Fatalf("workers=%d row %d entry %d: (%d, %v), serial (%d, %v)", workers, e, k, gc[k], gv[k], wc[k], wv[k])
				}
				if gv[k] != weight(e, int(gc[k])) {
					t.Fatalf("row %d col %d: stored %v, weight %v", e, gc[k], gv[k], weight(e, int(gc[k])))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("descending columns accepted")
		}
	}()
	SparseFromRows(4, 1, func(e int, emit func(int32, float64)) {
		emit(2, 1)
		emit(1, 1)
	})
}
