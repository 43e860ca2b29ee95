package mac

import (
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/static"
)

func reqsOn(links ...int) []static.Request {
	out := make([]static.Request, len(links))
	for i, e := range links {
		out[i] = static.Request{Link: e, Tag: int64(i)}
	}
	return out
}

func manyReqs(n, stations int) []static.Request {
	out := make([]static.Request, n)
	for i := range out {
		out[i] = static.Request{Link: i % stations, Tag: int64(i)}
	}
	return out
}

func TestDecayDeliversAll(t *testing.T) {
	model := interference.AllOnes{Links: 8}
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{1, 5, 40, 200} {
		reqs := manyReqs(n, 8)
		res := static.Run(rng, model, Decay{}, reqs, 0)
		if !res.AllServed() {
			t.Fatalf("n=%d: %d/%d served in %d slots", n, res.NumServed(), n, res.Slots)
		}
	}
}

func TestDecayBudgetNearLinear(t *testing.T) {
	// Lemma 15: (1+δ)e·n + O(log²n). With δ = 0.5 the linear
	// coefficient is ≈ 4.1; budgets should track that plus the tail.
	d := Decay{Delta: 0.5}
	b1k := d.Budget(8, 1000, 1000)
	b8k := d.Budget(8, 8000, 8000)
	ratio := float64(b8k) / float64(b1k)
	if ratio > 8.5 || ratio < 4 {
		t.Errorf("budget ratio %.2f for 8× packets, want ≈8 or less", ratio)
	}
}

func TestDecayScheduleLengthMatchesLemma15(t *testing.T) {
	// The measured schedule should be around (1+δ)e·n for large n.
	model := interference.AllOnes{Links: 4}
	rng := rand.New(rand.NewSource(92))
	const n = 400
	var total float64
	const reps = 3
	for r := 0; r < reps; r++ {
		res := static.Run(rng, model, Decay{Delta: 0.5}, manyReqs(n, 4), 0)
		if !res.AllServed() {
			t.Fatal("decay failed")
		}
		total += float64(res.Slots)
	}
	mean := total / reps
	perPacket := mean / n
	// e ≈ 2.72 is the theoretical floor for symmetric protocols; with
	// δ = 0.5 the paper's bound is ≈ 4.1 plus tail.
	if perPacket < 2.0 {
		t.Errorf("%.2f slots/packet — faster than the 1/e capacity bound allows", perPacket)
	}
	if perPacket > 8 {
		t.Errorf("%.2f slots/packet — far beyond Lemma 15's (1+δ)e", perPacket)
	}
}

func TestRoundRobinWithholding(t *testing.T) {
	model := interference.AllOnes{Links: 5}
	rng := rand.New(rand.NewSource(93))
	reqs := manyReqs(37, 5)
	res := static.Run(rng, model, RoundRobinWithholding{}, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("RRW served %d/%d in %d slots", res.NumServed(), len(reqs), res.Slots)
	}
	// Lemma 17: n + m slots suffice.
	if res.Slots > 37+5 {
		t.Errorf("RRW used %d slots, bound is n+m = 42", res.Slots)
	}
}

func TestRoundRobinWithholdingEmptyStations(t *testing.T) {
	model := interference.AllOnes{Links: 4}
	rng := rand.New(rand.NewSource(94))
	// Only stations 1 and 3 hold packets.
	reqs := reqsOn(1, 3, 3, 1, 1)
	res := static.Run(rng, model, RoundRobinWithholding{}, reqs, 0)
	if !res.AllServed() {
		t.Fatalf("RRW with gaps served %d/%d", res.NumServed(), len(reqs))
	}
}

func TestRRWDeterministicOrder(t *testing.T) {
	// Station 0's packets must all precede station 1's.
	model := interference.AllOnes{Links: 2}
	reqs := []static.Request{{Link: 1, Tag: 10}, {Link: 0, Tag: 20}, {Link: 0, Tag: 21}}
	exec := RoundRobinWithholding{}.NewExecution(model, reqs)
	rng := rand.New(rand.NewSource(95))
	var servedOrder []int64
	for !exec.Done() {
		att := exec.Attempts(rng)
		if len(att) == 0 {
			exec.Observe(nil, nil)
			continue
		}
		if len(att) != 1 {
			t.Fatalf("RRW attempted %d transmissions in one slot", len(att))
		}
		servedOrder = append(servedOrder, reqs[att[0]].Tag)
		exec.Observe(att, []bool{true})
	}
	want := []int64{20, 21, 10}
	for i := range want {
		if servedOrder[i] != want[i] {
			t.Fatalf("service order %v, want %v", servedOrder, want)
		}
	}
}

func TestDecayParamsSanity(t *testing.T) {
	d := Decay{}
	xi, rounds, s, stage2 := d.params(1000)
	if xi != len(rounds) {
		t.Fatalf("xi=%d but %d rounds", xi, len(rounds))
	}
	if s < 4 || stage2 < 8 {
		t.Errorf("degenerate stage-two parameters s=%v stage2=%d", s, stage2)
	}
	// Round lengths decay geometrically.
	for i := 1; i < len(rounds); i++ {
		if rounds[i] > rounds[i-1] {
			t.Fatalf("round lengths not decreasing: %v", rounds)
		}
	}
	if _, rounds0, _, _ := d.params(0); rounds0 != nil {
		t.Error("params(0) produced rounds")
	}
}

func TestBackoffDeliversAll(t *testing.T) {
	model := interference.AllOnes{Links: 4}
	rng := rand.New(rand.NewSource(96))
	for _, n := range []int{1, 10, 80} {
		reqs := manyReqs(n, 4)
		res := static.Run(rng, model, Backoff{}, reqs, 0)
		if !res.AllServed() {
			t.Fatalf("backoff n=%d: served %d/%d in %d slots", n, res.NumServed(), n, res.Slots)
		}
	}
}

func TestBackoffSlowerThanDecayUnderLoad(t *testing.T) {
	// The motivation for Algorithm 2: backoff's completion time under a
	// large batch is worse than the decay scheme's near-linear schedule.
	model := interference.AllOnes{Links: 4}
	const n = 300
	avg := func(alg static.Algorithm) float64 {
		rng := rand.New(rand.NewSource(97))
		var total float64
		const reps = 3
		for r := 0; r < reps; r++ {
			res := static.Run(rng, model, alg, manyReqs(n, 4), 0)
			if !res.AllServed() {
				t.Fatalf("%s failed", alg.Name())
			}
			total += float64(res.Slots)
		}
		return total / reps
	}
	backoff := avg(Backoff{})
	decay := avg(Decay{Delta: 0.5})
	if backoff < decay {
		t.Logf("note: backoff (%.0f slots) beat decay (%.0f) on this workload — acceptable at small n", backoff, decay)
	}
	// Both must at least respect the e·n capacity floor loosely.
	if decay < float64(n) {
		t.Errorf("decay finished in %.0f slots for %d packets — impossible on a MAC", decay, n)
	}
}

func TestBackoffBudgetPositive(t *testing.T) {
	b := Backoff{}
	if b.Budget(4, 10, 100) <= 0 || b.Budget(4, 1, 0) <= 0 {
		t.Fatal("degenerate backoff budgets")
	}
	// Windows double up to the cap.
	e := b.NewExecution(interference.AllOnes{Links: 2}, reqsOn(0, 0, 1)).(*backoffExec)
	e.Observe([]int{0}, []bool{false})
	if e.window[0] != 4 {
		t.Fatalf("window after one collision = %d, want 4", e.window[0])
	}
}

func TestMACNamesAndRemaining(t *testing.T) {
	if (Decay{}).Name() != "mac-decay" ||
		(RoundRobinWithholding{}).Name() != "round-robin-withholding" ||
		(Backoff{}).Name() != "binary-backoff" {
		t.Error("algorithm names changed")
	}
	model := interference.AllOnes{Links: 3}
	for _, alg := range []static.Algorithm{Decay{}, RoundRobinWithholding{}, Backoff{}} {
		exec := alg.NewExecution(model, reqsOn(0, 1, 2))
		if exec.Remaining() != 3 {
			t.Errorf("%s: remaining = %d, want 3", alg.Name(), exec.Remaining())
		}
	}
	if model.Name() != "multiple-access-channel" {
		t.Error("model name changed")
	}
}

func TestDecayPhiKnob(t *testing.T) {
	if got := (Decay{Phi: 2}).phi(); got != 2 {
		t.Errorf("phi = %v, want 2", got)
	}
	if got := (Decay{Phi: 0.2}).phi(); got != 1 {
		t.Errorf("phi floor = %v, want 1", got)
	}
	if got := (Backoff{InitialWindow: 8}).initial(); got != 8 {
		t.Errorf("initial window = %v, want 8", got)
	}
	if got := (Backoff{MaxWindow: 64}).maxWindow(); got != 64 {
		t.Errorf("max window = %v, want 64", got)
	}
}
