package static

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/interference"
)

// requestsOn builds k requests on each of the given links.
func requestsOn(k int, links ...int) []Request {
	var out []Request
	tag := int64(0)
	for i := 0; i < k; i++ {
		for _, e := range links {
			out = append(out, Request{Link: e, Tag: tag})
			tag++
		}
	}
	return out
}

func TestRunTrivialOnMAC(t *testing.T) {
	m := interference.AllOnes{Links: 4}
	reqs := requestsOn(3, 0, 1, 2, 3) // 12 packets
	rng := rand.New(rand.NewSource(61))
	res := Run(rng, m, Trivial{}, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("trivial left %d unserved", len(reqs)-res.NumServed())
	}
	if res.Slots != len(reqs) {
		t.Errorf("trivial used %d slots for %d requests", res.Slots, len(reqs))
	}
}

func TestRunFullParallelOnIdentity(t *testing.T) {
	m := interference.Identity{Links: 3}
	reqs := requestsOn(5, 0, 1, 2)
	rng := rand.New(rand.NewSource(62))
	res := Run(rng, m, FullParallel{}, reqs, 0)
	if !res.AllServed() {
		t.Fatal("full-parallel failed on identity model")
	}
	// Congestion is 5; the schedule must be exactly 5 slots.
	if res.Slots != 5 {
		t.Errorf("slots = %d, want 5 (the congestion)", res.Slots)
	}
}

func TestRequestMeasure(t *testing.T) {
	m := interference.AllOnes{Links: 3}
	if got := RequestMeasure(m, requestsOn(2, 0, 1)); got != 4 {
		t.Errorf("measure = %v, want 4", got)
	}
	id := interference.Identity{Links: 3}
	if got := RequestMeasure(id, requestsOn(2, 0, 1)); got != 2 {
		t.Errorf("identity measure = %v, want 2", got)
	}
}

func TestDecayDeliversOnIdentity(t *testing.T) {
	m := interference.Identity{Links: 8}
	reqs := requestsOn(6, 0, 1, 2, 3, 4, 5, 6, 7)
	rng := rand.New(rand.NewSource(63))
	res := Run(rng, m, Decay{}, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("decay left %d/%d unserved in %d slots",
			len(reqs)-res.NumServed(), len(reqs), res.Slots)
	}
}

func TestDecayDeliversOnDenseThreshold(t *testing.T) {
	// A weighted model where links interfere moderately.
	n := 6
	d := interference.NewDense("w", n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := d.Set(i, j, 0.3); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	reqs := requestsOn(8, 0, 1, 2, 3, 4, 5)
	rng := rand.New(rand.NewSource(64))
	res := Run(rng, m(d), Decay{}, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("decay left %d/%d unserved in %d slots",
			len(reqs)-res.NumServed(), len(reqs), res.Slots)
	}
}

// m is an identity adapter to keep call sites terse.
func m(x interference.Model) interference.Model { return x }

func TestDecayScheduleLengthScalesWithMeasure(t *testing.T) {
	// On the MAC model (measure = packet count), decay should finish in
	// O(I·log n): verify super-linear but bounded growth.
	rng := rand.New(rand.NewSource(65))
	model := interference.AllOnes{Links: 4}
	slotsFor := func(k int) int {
		reqs := requestsOn(k, 0, 1, 2, 3)
		res := Run(rng, model, Decay{}, reqs, 0)
		if !res.AllServed() {
			t.Fatalf("decay failed at k=%d (%d slots)", k, res.Slots)
		}
		return res.Slots
	}
	s8, s32 := slotsFor(8), slotsFor(32)
	if s32 < 2*s8 {
		t.Errorf("suspicious scaling: %d slots at I=32 vs %d at I=8", s32, s8)
	}
	ratio := float64(s32) / float64(s8)
	if ratio > 16 {
		t.Errorf("scaling ratio %v too steep for O(I log n)", ratio)
	}
}

func TestSpreadDeliversAndIsNearLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	model := interference.AllOnes{Links: 4}
	slotsFor := func(k int) int {
		reqs := requestsOn(k, 0, 1, 2, 3)
		res := Run(rng, model, Spread{}, reqs, 0)
		if !res.AllServed() {
			t.Fatalf("spread failed at k=%d: %d/%d served in %d slots",
				k, res.NumServed(), len(reqs), res.Slots)
		}
		return res.Slots
	}
	s16 := slotsFor(16)
	s64 := slotsFor(64)
	// Linear-in-I shape: quadrupling the load should scale slots by
	// roughly 4, certainly below 8.
	ratio := float64(s64) / float64(s16)
	if ratio > 8 {
		t.Errorf("spread scaling ratio %v, want ≈4", ratio)
	}
}

func TestBudgetsArePositiveAndMonotone(t *testing.T) {
	algs := []Algorithm{Trivial{}, FullParallel{}, Decay{}, Spread{},
		Densify{Inner: Decay{}}, GreedyPowerControl{}}
	for _, alg := range algs {
		b1 := alg.Budget(16, 4, 10)
		b2 := alg.Budget(16, 16, 100)
		if b1 <= 0 {
			t.Errorf("%s: non-positive budget %d", alg.Name(), b1)
		}
		if b2 < b1 {
			t.Errorf("%s: budget not monotone (%d then %d)", alg.Name(), b1, b2)
		}
		if b0 := alg.Budget(16, 1, 0); b0 <= 0 {
			t.Errorf("%s: zero-request budget %d", alg.Name(), b0)
		}
	}
}

func TestDensifyDeliversOnMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	model := interference.AllOnes{Links: 3}
	alg := Densify{Inner: Trivial{}, Chi: 4}
	reqs := requestsOn(20, 0, 1, 2)
	res := Run(rng, model, alg, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("densify(trivial) left %d/%d unserved in %d slots",
			len(reqs)-res.NumServed(), len(reqs), res.Slots)
	}
}

func TestDensifyDeliversOnIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	model := interference.Identity{Links: 6}
	alg := Densify{Inner: Decay{}, Chi: 4}
	reqs := requestsOn(30, 0, 1, 2, 3, 4, 5)
	res := Run(rng, model, alg, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("densify(decay) left %d/%d unserved in %d slots",
			len(reqs)-res.NumServed(), len(reqs), res.Slots)
	}
}

// TestDensifyImprovesScaling is the heart of Section 3: the densified
// algorithm's schedule length grows linearly in I for dense instances,
// while the raw O(I·log n) algorithm grows super-linearly.
func TestDensifyImprovesScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	model := interference.Identity{Links: 4}
	raw := Decay{}
	dense := Densify{Inner: Decay{}, Chi: 6}
	lengths := func(alg Algorithm, k int) float64 {
		var total float64
		const reps = 3
		for r := 0; r < reps; r++ {
			reqs := requestsOn(k, 0, 1, 2, 3)
			res := Run(rng, model, alg, reqs, 0)
			if !res.AllServed() {
				t.Fatalf("%s failed at k=%d", alg.Name(), k)
			}
			total += float64(res.Slots)
		}
		return total / reps
	}
	// Per-unit-of-I slot cost at small and large I.
	rawSmall := lengths(raw, 16) / 16
	rawLarge := lengths(raw, 256) / 256
	denseSmall := lengths(dense, 16) / 16
	denseLarge := lengths(dense, 256) / 256

	// The raw algorithm's unit cost must grow noticeably (log factor).
	if rawLarge < rawSmall*1.3 {
		t.Errorf("raw decay unit cost did not grow: %.2f → %.2f", rawSmall, rawLarge)
	}
	// The densified unit cost must stay within a constant factor.
	if denseLarge > denseSmall*2.5 {
		t.Errorf("densified unit cost grew too much: %.2f → %.2f", denseSmall, denseLarge)
	}
	if math.IsNaN(denseLarge) {
		t.Fatal("densified run broken")
	}
}

func TestGreedyPowerControlOnDense(t *testing.T) {
	// Without a PowerSolver, the greedy scheduler packs by weights only.
	n := 5
	d := interference.NewDense("w", n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := d.Set(i, j, 0.2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(70))
	reqs := requestsOn(6, 0, 1, 2, 3, 4)
	res := Run(rng, d, GreedyPowerControl{}, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("greedy power control left %d/%d unserved in %d slots",
			len(reqs)-res.NumServed(), len(reqs), res.Slots)
	}
}

func TestExecutionContractDoneAndRemaining(t *testing.T) {
	model := interference.Identity{Links: 2}
	for _, alg := range []Algorithm{Trivial{}, FullParallel{}, Decay{}, Spread{},
		Densify{Inner: Decay{}, Chi: 4}} {
		reqs := requestsOn(2, 0, 1)
		exec := alg.NewExecution(model, reqs)
		if exec.Done() {
			t.Errorf("%s: fresh execution claims done", alg.Name())
		}
		if exec.Remaining() != len(reqs) {
			t.Errorf("%s: remaining = %d, want %d", alg.Name(), exec.Remaining(), len(reqs))
		}
		// Empty executions are immediately done.
		empty := alg.NewExecution(model, nil)
		if !empty.Done() {
			t.Errorf("%s: empty execution not done", alg.Name())
		}
	}
}

func TestRunRespectsBudget(t *testing.T) {
	model := interference.AllOnes{Links: 2}
	reqs := requestsOn(50, 0, 1)
	rng := rand.New(rand.NewSource(71))
	res := Run(rng, model, Trivial{}, reqs, 10)
	if res.Slots > 10 {
		t.Errorf("run exceeded budget: %d slots", res.Slots)
	}
	if res.NumServed() != 10 {
		t.Errorf("served %d in 10 slots, want 10", res.NumServed())
	}
}

func TestBinomialSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	// Mean of Binomial(100, 0.02) is 2.
	var sum float64
	const trials = 5000
	for i := 0; i < trials; i++ {
		sum += float64(binomial(rng, 100, 0.02))
	}
	mean := sum / trials
	if mean < 1.8 || mean > 2.2 {
		t.Errorf("binomial mean %v, want ≈2", mean)
	}
	if binomial(rng, 10, 0) != 0 || binomial(rng, 0, 0.5) != 0 {
		t.Error("degenerate binomials wrong")
	}
	if binomial(rng, 7, 1) != 7 {
		t.Error("p=1 binomial wrong")
	}
}

func TestPendingSet(t *testing.T) {
	reqs := requestsOn(3, 0, 1) // 3 on link 0, 3 on link 1 (interleaved tags)
	p := newPendingSet(2, reqs)
	if p.pending != 6 {
		t.Fatalf("pending = %d, want 6", p.pending)
	}
	if p.countOn(0) != 3 || p.countOn(1) != 3 {
		t.Fatalf("counts = %d,%d", p.countOn(0), p.countOn(1))
	}
	rng := rand.New(rand.NewSource(73))
	picked := p.pickOn(rng, 0, 2)
	if len(picked) != 2 || picked[0] == picked[1] {
		t.Fatalf("pickOn returned %v", picked)
	}
	for _, idx := range picked {
		if reqs[idx].Link != 0 {
			t.Fatalf("picked request %d on wrong link", idx)
		}
	}
	p.remove(picked[0])
	p.remove(picked[0]) // double remove is a no-op
	if p.countOn(0) != 2 || p.pending != 5 {
		t.Fatalf("after remove: countOn(0)=%d pending=%d", p.countOn(0), p.pending)
	}
	if got := p.pickOn(rng, 0, 10); len(got) != 2 {
		t.Fatalf("over-pick returned %d items, want 2", len(got))
	}
	if got := p.pickOn(rng, 0, 0); got != nil {
		t.Fatalf("zero pick returned %v", got)
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[string]Algorithm{
		"trivial":              Trivial{},
		"full-parallel":        FullParallel{},
		"decay":                Decay{},
		"spread":               Spread{},
		"densify(decay)":       Densify{Inner: Decay{}},
		"greedy-power-control": GreedyPowerControl{},
	}
	for want, alg := range names {
		if got := alg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestDensifyPaperDefaultChi(t *testing.T) {
	// With Chi = 0 the paper default kicks in; the plan must still be
	// coherent (positive budgets, runnable).
	alg := Densify{Inner: Decay{}}
	model := interference.Identity{Links: 4}
	reqs := requestsOn(3, 0, 1, 2, 3)
	rng := rand.New(rand.NewSource(87))
	res := Run(rng, model, alg, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("paper-χ densify served %d/%d", res.NumServed(), len(reqs))
	}
}

func TestGreedyPowerControlRetryPath(t *testing.T) {
	// A lossy wrapper forces the replay executor into its retry phase.
	inner := interference.Identity{Links: 3}
	rng := rand.New(rand.NewSource(88))
	model := &interference.Lossy{Inner: inner, P: 0.4, Rand: rng.Float64}
	reqs := requestsOn(4, 0, 1, 2)
	res := Run(rng, model, GreedyPowerControl{}, reqs, 20*GreedyPowerControl{}.Budget(3, 4, len(reqs)))
	if !res.AllServed() {
		t.Fatalf("retry path failed: %d/%d served", res.NumServed(), len(reqs))
	}
}

func TestGreedyPowerControlThresholdKnob(t *testing.T) {
	if got := (GreedyPowerControl{}).threshold(); got != 0.5 {
		t.Errorf("default threshold %v, want 0.5", got)
	}
	if got := (GreedyPowerControl{Threshold: 0.9}).threshold(); got != 0.9 {
		t.Errorf("threshold %v, want 0.9", got)
	}
}
