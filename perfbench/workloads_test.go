package main

import "testing"

// TestWorkloadSpecsCompile compiles every unit of the first cycles of
// every workload: a workload must never submit a spec the daemon
// rejects (the sweep grids stop short of each family's stability
// threshold, where the frame length stops converging).
func TestWorkloadSpecsCompile(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, 1)
		cycles := 4
		if w.name == "spatial" {
			cycles = 1 // a 16384-link compilation; every cycle is alike
		}
		for i := 0; i < cycles; i++ {
			for _, r := range s.cycle() {
				if r.repeat {
					continue
				}
				reps := r.reps
				if reps < 1 {
					reps = 1
				}
				p, err := r.sc.Plan(reps)
				if err != nil {
					t.Fatalf("%s: plan: %v", w.name, err)
				}
				for _, u := range p.Units {
					if _, err := u.Scenario.Compile(); err != nil {
						t.Errorf("%s unit %s: %v", w.name, u.Label(), err)
					}
					if r.reps > 1 {
						break // replications differ only in seed
					}
				}
			}
		}
		if th := w.budget.threads(); th > 2 {
			t.Errorf("%s: thread budget %d exceeds 2 cores", w.name, th)
		}
	}
}

func TestStreamCyclesHaveTheDesignedShare(t *testing.T) {
	for _, w := range workloads {
		if w.name == "spatial" {
			continue
		}
		s := newStream(w, 7)
		var total, repeats int
		for i := 0; i < 10; i++ {
			for _, r := range s.cycle() {
				total++
				if r.repeat {
					repeats++
					if r.spec < 0 || r.spec >= s.cold || s.cold-r.spec > w.recent {
						t.Errorf("%s: resubmission of cold %d out of reach", w.name, r.spec)
					}
				}
			}
		}
		if c := w.coldPerCycle + w.cachedPerCycle; repeats*c != total*w.cachedPerCycle {
			t.Errorf("%s: %d/%d repeats, designed %d/%d", w.name, repeats, total, w.cachedPerCycle, c)
		}
		// The same seed yields the same requests.
		a, b := newStream(w, 3).cycle(), newStream(w, 3).cycle()
		if a[0].sc.Hash() != b[0].sc.Hash() {
			t.Errorf("%s: the stream is not a function of its seed", w.name)
		}
	}
}

// TestColdRequestsRegenerateTheStream pins the gate's regeneration of
// the cold requests to what the stream issued, resubmissions between
// them included.
func TestColdRequestsRegenerateTheStream(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, 11)
		var issued []request
		for i := 0; i < 40; i++ {
			for _, r := range s.cycle() {
				if !r.repeat {
					issued = append(issued, r)
				}
			}
		}
		again := coldRequests(w, 11, s.cold)
		if len(again) != len(issued) {
			t.Fatalf("%s: %d regenerated, %d issued", w.name, len(again), len(issued))
		}
		for i := range issued {
			if again[i].spec != i || again[i].sc.Hash() != issued[i].sc.Hash() {
				t.Fatalf("%s: cold request %d differs when regenerated", w.name, i)
			}
		}
	}
}
