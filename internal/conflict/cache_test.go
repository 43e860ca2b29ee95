package conflict

import (
	"testing"

	"dynsched/internal/interference"
)

// TestModelWeightRowsTracksGraphMutation guards the CSR cache against
// the live-graph mutator: adding a conflict after NewModel must be
// visible to Measure (which goes through WeightRows), not only to
// Weight and the resolvers.
func TestModelWeightRowsTracksGraphMutation(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddConflict(0, 1); err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := []int{1, 0, 0, 1}
	if got := interference.Measure(m, r); got != 1 {
		t.Fatalf("pre-mutation measure = %v, want 1", got)
	}
	// New conflict 0–3 with rank(0) < rank(3): W[3][0] becomes 1, so the
	// measure of {0, 3} rises to 2.
	if err := g.AddConflict(0, 3); err != nil {
		t.Fatal(err)
	}
	if w := m.Weight(3, 0); w != 1 {
		t.Fatalf("live Weight(3,0) = %v after mutation, want 1", w)
	}
	if got := interference.Measure(m, r); got != 2 {
		t.Fatalf("post-mutation measure = %v, want 2 (stale CSR cache?)", got)
	}
	// Re-adding an existing conflict must not thrash the cache version.
	v := g.version
	if err := g.AddConflict(0, 3); err != nil {
		t.Fatal(err)
	}
	if g.version != v {
		t.Fatalf("duplicate AddConflict bumped version %d → %d", v, g.version)
	}
}
