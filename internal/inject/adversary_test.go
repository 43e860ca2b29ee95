package inject

import (
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

func patternPaths(links int) []netgraph.Path {
	out := make([]netgraph.Path, links)
	for i := range out {
		out[i] = netgraph.Path{netgraph.LinkID(i)}
	}
	return out
}

func TestPatternConstructorErrors(t *testing.T) {
	m := interference.Identity{Links: 2}
	paths := patternPaths(2)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"no paths", func() error { _, err := NewPattern(m, nil, 10, 0.5, TimingBurst); return err }},
		{"bad window", func() error { _, err := NewPattern(m, paths, 0, 0.5, TimingBurst); return err }},
		{"bad rate", func() error { _, err := NewPattern(m, paths, 10, 0, TimingBurst); return err }},
		{"bad link", func() error {
			_, err := NewPattern(m, []netgraph.Path{{9}}, 10, 0.5, TimingBurst)
			return err
		}},
	}
	for _, tc := range cases {
		if tc.fn() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestAllTimingsAdmissible is the central adversary property: every
// generated sequence must satisfy the (w, λ) window constraint over all
// sliding windows, for each timing and for models with different W.
func TestAllTimingsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	models := []interference.Model{
		interference.Identity{Links: 4},
		interference.AllOnes{Links: 4},
	}
	for _, m := range models {
		for _, timing := range []Timing{TimingBurst, TimingSpread, TimingSawtooth} {
			for _, lambda := range []float64{0.3, 0.9, 2.5} {
				adv, err := NewPattern(m, patternPaths(4), 16, lambda, timing)
				if err != nil {
					t.Fatal(err)
				}
				chk := NewChecker(m, 16, lambda)
				for slot := int64(0); slot < 800; slot++ {
					pkts := adv.Step(slot, rng)
					if err := chk.Observe(pkts); err != nil {
						t.Fatalf("%s/%s λ=%v slot %d: %v", m.Name(), timing, lambda, slot, err)
					}
				}
			}
		}
	}
}

func TestPatternBurstTiming(t *testing.T) {
	m := interference.Identity{Links: 2}
	adv, err := NewPattern(m, patternPaths(2), 10, 0.5, TimingBurst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(113))
	for slot := int64(0); slot < 50; slot++ {
		pkts := adv.Step(slot, rng)
		if len(pkts) > 0 && slot%10 != 0 {
			t.Fatalf("burst adversary injected at mid-window slot %d", slot)
		}
	}
}

func TestPatternSawtoothTiming(t *testing.T) {
	m := interference.Identity{Links: 2}
	adv, err := NewPattern(m, patternPaths(2), 10, 0.5, TimingSawtooth)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(114))
	for slot := int64(0); slot < 50; slot++ {
		pkts := adv.Step(slot, rng)
		if len(pkts) > 0 && slot%10 != 9 {
			t.Fatalf("sawtooth adversary injected at slot %d", slot)
		}
	}
}

func TestPatternUniqueIDsAndStamps(t *testing.T) {
	m := interference.AllOnes{Links: 3}
	adv, err := NewPattern(m, patternPaths(3), 8, 1.5, TimingSpread)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(115))
	seen := make(map[int64]bool)
	for slot := int64(0); slot < 200; slot++ {
		for _, p := range adv.Step(slot, rng) {
			if seen[p.ID] {
				t.Fatalf("duplicate ID %d", p.ID)
			}
			seen[p.ID] = true
			if p.Injected != slot {
				t.Fatalf("packet stamped %d delivered at %d", p.Injected, slot)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("adversary injected nothing")
	}
}

func TestCheckerDetectsViolation(t *testing.T) {
	m := interference.AllOnes{Links: 2}
	chk := NewChecker(m, 4, 0.5) // budget 2 per window
	// Three packets in one slot exceed the budget.
	pkts := []Packet{
		{ID: 1, Path: netgraph.Path{0}},
		{ID: 2, Path: netgraph.Path{1}},
		{ID: 3, Path: netgraph.Path{0}},
	}
	if err := chk.Observe(pkts); err == nil {
		t.Fatal("checker missed an obvious violation")
	}
}

func TestCheckerSlidingWindow(t *testing.T) {
	m := interference.AllOnes{Links: 1}
	chk := NewChecker(m, 4, 0.5) // budget 2 per any 4 consecutive slots
	one := []Packet{{ID: 1, Path: netgraph.Path{0}}}
	// Slots 0,1: two packets — fine. Slot 2: third within window [0,3] — violation.
	if err := chk.Observe(one); err != nil {
		t.Fatal(err)
	}
	if err := chk.Observe(one); err != nil {
		t.Fatal(err)
	}
	if err := chk.Observe(one); err == nil {
		t.Fatal("sliding-window violation missed")
	}
}

func TestRotatingAdversaryAdmissibleAndFocused(t *testing.T) {
	m := interference.Identity{Links: 3}
	paths := patternPaths(3)
	adv, err := NewRotating(m, paths, 12, 0.5, TimingBurst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(116))
	chk := NewChecker(m, 12, 0.5)
	pathOfWindow := make(map[int64]map[int]bool)
	for slot := int64(0); slot < 360; slot++ {
		pkts := adv.Step(slot, rng)
		if err := chk.Observe(pkts); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		win := slot / 12
		for _, p := range pkts {
			if pathOfWindow[win] == nil {
				pathOfWindow[win] = make(map[int]bool)
			}
			pathOfWindow[win][int(p.Path[0])] = true
		}
	}
	// Each window hits exactly one link, and the focus rotates.
	for win, links := range pathOfWindow {
		if len(links) != 1 {
			t.Fatalf("window %d touched %d links, want 1", win, len(links))
		}
		for e := range links {
			if e != int(win%3) {
				t.Fatalf("window %d focused link %d, want %d", win, e, win%3)
			}
		}
	}
	if len(pathOfWindow) < 20 {
		t.Fatalf("only %d windows injected", len(pathOfWindow))
	}
}

func TestAdversaryStringersAndRate(t *testing.T) {
	m := interference.Identity{Links: 2}
	adv, err := NewPattern(m, patternPaths(2), 10, 0.5, TimingBurst)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Name() == "" || adv.Rate() != 0.5 || adv.Window() != 10 {
		t.Errorf("accessors wrong: %q %v %d", adv.Name(), adv.Rate(), adv.Window())
	}
	rot, err := NewRotating(m, patternPaths(2), 10, 0.5, TimingSawtooth)
	if err != nil {
		t.Fatal(err)
	}
	if rot.Name() == adv.Name() {
		t.Error("rotating adversary not distinguished in Name()")
	}
	for _, tm := range []Timing{TimingBurst, TimingSpread, TimingSawtooth, Timing(99)} {
		if tm.String() == "" {
			t.Errorf("empty string for timing %d", tm)
		}
	}
}
