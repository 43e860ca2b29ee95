package sim

import (
	"math/rand"
	"testing"

	"dynsched/internal/netgraph"
	"dynsched/internal/testenv"
)

// TestPacketArenaMatchesMap drives the arena with a long random
// insert/lookup/remove workload and checks every observable against a
// reference map — the structure the arena replaced.
func TestPacketArenaMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := newPacketArena()
	ref := map[int64]struct {
		hop      int
		injected int64
	}{}
	path := netgraph.Path{1, 2, 3}
	var ids []int64
	nextID := int64(0)
	for step := 0; step < 50_000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert fresh
			nextID++
			a.insert(nextID, path, int64(step))
			ref[nextID] = struct {
				hop      int
				injected int64
			}{0, int64(step)}
			ids = append(ids, nextID)
		case op < 6 && len(ids) > 0: // advance a random live packet
			id := ids[rng.Intn(len(ids))]
			if _, ok := ref[id]; !ok {
				continue
			}
			st := a.get(id)
			if st == nil {
				t.Fatalf("step %d: id %d missing from arena", step, id)
			}
			st.hop++
			r := ref[id]
			r.hop++
			ref[id] = r
		case op < 9 && len(ids) > 0: // remove a random packet
			id := ids[rng.Intn(len(ids))]
			a.remove(id)
			delete(ref, id)
		default: // re-insert an existing id (overwrite semantics)
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if _, ok := ref[id]; !ok {
				continue
			}
			a.insert(id, path, int64(step))
			ref[id] = struct {
				hop      int
				injected int64
			}{0, int64(step)}
		}
		if a.len() != len(ref) {
			t.Fatalf("step %d: arena len %d, reference %d", step, a.len(), len(ref))
		}
	}
	for id, want := range ref {
		st := a.get(id)
		if st == nil {
			t.Fatalf("id %d missing at end", id)
		}
		if st.hop != want.hop || st.injected != want.injected || st.id != id {
			t.Fatalf("id %d: state (%d,%d,%d), want (%d,%d)", id, st.id, st.hop, st.injected, want.hop, want.injected)
		}
	}
	for _, id := range ids {
		if _, ok := ref[id]; !ok {
			if a.get(id) != nil {
				t.Fatalf("removed id %d still resolvable", id)
			}
		}
	}
}

// TestPacketArenaSteadyStateZeroAllocs pins the free-list guarantee:
// once the arena has reached its high-water mark, the insert → get →
// remove packet lifecycle does not allocate.
func TestPacketArenaSteadyStateZeroAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	a := newPacketArena()
	path := netgraph.Path{0, 1}
	id := int64(0)
	for i := 0; i < 512; i++ { // reach a stable table size
		id++
		a.insert(id, path, 0)
	}
	for i := int64(1); i <= 512; i++ {
		a.remove(i)
	}
	got := testing.AllocsPerRun(500, func() {
		id++
		a.insert(id, path, 7)
		st := a.get(id)
		st.hop++
		a.remove(id)
	})
	if got != 0 {
		t.Errorf("steady-state packet lifecycle: %v allocs, want 0", got)
	}
}
