// Package conflict implements the conflict-graph interference models of
// Section 7.2: vertices are communication links and an edge indicates
// that two links may not transmit simultaneously. The inductive
// independence number ρ of the conflict graph (Definition 1) bounds how
// far any protocol's injection rate can exceed the interference measure,
// and the W matrix derived from an inductive-independence ordering makes
// the paper's transformation O(ρ·log m)-competitive.
package conflict

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// Graph is an undirected conflict graph over links 0..n-1.
type Graph struct {
	n   int
	adj []map[int]bool
	// version counts structural mutations; Model uses it to keep its
	// CSR weight cache coherent with the live graph.
	version int64
}

// NewGraph creates a conflict graph over n links with no conflicts.
func NewGraph(n int) *Graph {
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	return &Graph{n: n, adj: adj}
}

// NumLinks returns the number of links (vertices).
func (g *Graph) NumLinks() int { return g.n }

// AddConflict records that links e and e2 conflict. Self-conflicts are
// ignored (a link always conflicts with itself implicitly).
func (g *Graph) AddConflict(e, e2 int) error {
	if e < 0 || e >= g.n || e2 < 0 || e2 >= g.n {
		return fmt.Errorf("conflict: pair (%d,%d) out of range [0,%d)", e, e2, g.n)
	}
	if e == e2 {
		return nil
	}
	if !g.adj[e][e2] {
		g.version++
	}
	g.adj[e][e2] = true
	g.adj[e2][e] = true
	return nil
}

// Conflicts reports whether e and e2 conflict. A link conflicts with
// itself.
func (g *Graph) Conflicts(e, e2 int) bool {
	if e == e2 {
		return true
	}
	return g.adj[e][e2]
}

// Degree returns the number of conflicting neighbours of e.
func (g *Graph) Degree(e int) int { return len(g.adj[e]) }

// Neighbors returns the conflicting neighbours of e in ascending order.
func (g *Graph) Neighbors(e int) []int {
	out := make([]int, 0, len(g.adj[e]))
	for v := range g.adj[e] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Independent reports whether the given links are pairwise non-conflicting
// and duplicate-free.
func (g *Graph) Independent(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.Conflicts(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// DegeneracyOrder returns a smallest-degree-last ordering: repeatedly
// remove a minimum-degree vertex; the removal sequence reversed is the
// order. For many geometric conflict graphs this ordering certifies a
// small inductive independence number.
func (g *Graph) DegeneracyOrder() []int {
	deg := make([]int, g.n)
	removed := make([]bool, g.n)
	for v := 0; v < g.n; v++ {
		deg[v] = len(g.adj[v])
	}
	seq := make([]int, 0, g.n)
	for len(seq) < g.n {
		best, bestDeg := -1, g.n+1
		for v := 0; v < g.n; v++ {
			if !removed[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		removed[best] = true
		seq = append(seq, best)
		for u := range g.adj[best] {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	// Reverse: vertices removed last come first in the order π.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq
}

// Rho computes the inductive independence number certified by the given
// ordering: the maximum, over vertices v, of the largest independent set
// among v's earlier-ordered neighbours. Neighbourhoods larger than
// maxExact vertices are estimated greedily instead of exactly; pass a
// generous maxExact (e.g. 22) for exact answers on small instances.
func (g *Graph) Rho(order []int, maxExact int) int {
	rank := make([]int, g.n)
	for i, v := range order {
		rank[v] = i
	}
	rho := 0
	for _, v := range order {
		var earlier []int
		for u := range g.adj[v] {
			if rank[u] < rank[v] {
				earlier = append(earlier, u)
			}
		}
		var size int
		if len(earlier) <= maxExact {
			size = g.maxIndependent(earlier)
		} else {
			size = g.greedyIndependent(earlier)
		}
		if size > rho {
			rho = size
		}
	}
	return rho
}

// maxIndependent finds the maximum independent set size within set by
// branch and bound.
func (g *Graph) maxIndependent(set []int) int {
	best := 0
	var rec func(rest []int, chosen int)
	rec = func(rest []int, chosen int) {
		if chosen+len(rest) <= best {
			return
		}
		if len(rest) == 0 {
			if chosen > best {
				best = chosen
			}
			return
		}
		v := rest[0]
		// Branch 1: exclude v.
		rec(rest[1:], chosen)
		// Branch 2: include v, dropping its neighbours.
		var filtered []int
		for _, u := range rest[1:] {
			if !g.Conflicts(v, u) {
				filtered = append(filtered, u)
			}
		}
		rec(filtered, chosen+1)
	}
	rec(set, 0)
	return best
}

func (g *Graph) greedyIndependent(set []int) int {
	sorted := append([]int(nil), set...)
	sort.Slice(sorted, func(i, j int) bool { return g.Degree(sorted[i]) < g.Degree(sorted[j]) })
	var chosen []int
	for _, v := range sorted {
		ok := true
		for _, u := range chosen {
			if g.Conflicts(v, u) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, v)
		}
	}
	return len(chosen)
}

// NodeConstraint builds the conflict graph of the node-constraint model
// on g: two links conflict when they share an endpoint (each node can
// take part in at most one transmission per slot).
func NodeConstraint(g *netgraph.Graph) *Graph {
	cg := NewGraph(g.NumLinks())
	links := g.Links()
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			a, b := links[i], links[j]
			if a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To {
				_ = cg.AddConflict(int(a.ID), int(b.ID)) // indices in range by construction
			}
		}
	}
	return cg
}

// ProtocolModel builds the conflict graph of the protocol model with
// guard parameter delta on a positioned graph: links a and b conflict
// when the sender of one is within (1+delta)·d(b) of the receiver of the
// other (or vice versa).
func ProtocolModel(g *netgraph.Graph, delta float64) *Graph {
	cg := NewGraph(g.NumLinks())
	links := g.Links()
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			a, b := links[i], links[j]
			da := g.LinkDist(a.ID)
			db := g.LinkDist(b.ID)
			// Sender of a too close to receiver of b, or sender of b too
			// close to receiver of a.
			if g.SenderReceiverDist(a.ID, b.ID) <= (1+delta)*db ||
				g.SenderReceiverDist(b.ID, a.ID) <= (1+delta)*da {
				_ = cg.AddConflict(int(a.ID), int(b.ID))
			}
		}
	}
	return cg
}

// Distance2Matching builds the conflict graph of distance-2 matching on
// g: links conflict when they share an endpoint or any of their
// endpoints are adjacent in g (treating g's links as undirected edges).
func Distance2Matching(g *netgraph.Graph) *Graph {
	cg := NewGraph(g.NumLinks())
	// Undirected adjacency between nodes.
	adjacent := make(map[[2]netgraph.NodeID]bool)
	for _, l := range g.Links() {
		u, v := l.From, l.To
		if u > v {
			u, v = v, u
		}
		adjacent[[2]netgraph.NodeID{u, v}] = true
	}
	isAdj := func(u, v netgraph.NodeID) bool {
		if u == v {
			return true
		}
		if u > v {
			u, v = v, u
		}
		return adjacent[[2]netgraph.NodeID{u, v}]
	}
	links := g.Links()
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			a, b := links[i], links[j]
			ends := [2]netgraph.NodeID{a.From, a.To}
			ends2 := [2]netgraph.NodeID{b.From, b.To}
			conflict := false
			for _, u := range ends {
				for _, v := range ends2 {
					if u == v || isAdj(u, v) {
						conflict = true
					}
				}
			}
			if conflict {
				_ = cg.AddConflict(int(a.ID), int(b.ID))
			}
		}
	}
	return cg
}

// Random builds an Erdős–Rényi conflict graph over n links where every
// pair conflicts independently with probability p. Used by tests.
func Random(rng *rand.Rand, n int, p float64) *Graph {
	cg := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				_ = cg.AddConflict(i, j)
			}
		}
	}
	return cg
}

// Model adapts a conflict graph and an ordering into an
// interference.Model per Section 7.2: W[e][e'] = 1 when e' conflicts
// with e and π(e') ≤ π(e), so the measure at e counts requests on
// conflicting links that come no later in the order. (The paper's prose
// swaps the inequality between the definition and the displayed formula;
// we follow the displayed formula, which is the one the ρ-competitive
// argument uses.) A transmission succeeds when its link is unique in the
// slot and no conflicting link transmits.
type Model struct {
	cg   *Graph
	rank []int
	name string

	rowsMu      sync.Mutex
	rows        *interference.Sparse
	rowsVersion int64 // cg.version the cache was built at
}

var (
	_ interference.Model        = (*Model)(nil)
	_ interference.RowsProvider = (*Model)(nil)
)

// NewModel builds the interference model for cg under the given
// ordering; a nil order selects the degeneracy ordering.
func NewModel(cg *Graph, order []int) (*Model, error) {
	if order == nil {
		order = cg.DegeneracyOrder()
	}
	if len(order) != cg.n {
		return nil, fmt.Errorf("conflict: order has %d entries for %d links", len(order), cg.n)
	}
	rank := make([]int, cg.n)
	seen := make([]bool, cg.n)
	for i, v := range order {
		if v < 0 || v >= cg.n || seen[v] {
			return nil, fmt.Errorf("conflict: order is not a permutation (entry %d = %d)", i, v)
		}
		seen[v] = true
		rank[v] = i
	}
	m := &Model{cg: cg, rank: rank, name: "conflict-graph"}
	// The W matrix of a conflict graph is genuinely sparse (nnz = n plus
	// one entry per ordered conflicting pair); precompute the CSR form so
	// measure evaluations cost O(conflicts) instead of O(n²).
	m.rows = interference.SparseFromWeights(cg.n, 1, m.Weight)
	m.rowsVersion = cg.version
	return m, nil
}

// WeightRows implements interference.RowsProvider. The CSR cache is
// rebuilt if the underlying conflict graph gained edges after NewModel,
// so Measure never desyncs from Weight and the resolvers (which read
// the live graph); the mutex makes concurrent readers safe, but
// AddConflict must still not race with them.
func (m *Model) WeightRows() *interference.Sparse {
	m.rowsMu.Lock()
	defer m.rowsMu.Unlock()
	if m.rowsVersion != m.cg.version {
		m.rows = interference.SparseFromWeights(m.cg.n, 1, m.Weight)
		m.rowsVersion = m.cg.version
	}
	return m.rows
}

// Name implements interference.Model.
func (m *Model) Name() string { return m.name }

// NumLinks implements interference.Model.
func (m *Model) NumLinks() int { return m.cg.n }

// Weight implements interference.Model.
func (m *Model) Weight(e, e2 int) float64 {
	if e == e2 {
		return 1
	}
	if m.cg.Conflicts(e, e2) && m.rank[e2] <= m.rank[e] {
		return 1
	}
	return 0
}

// ConflictGraph returns the underlying conflict graph.
func (m *Model) ConflictGraph() *Graph { return m.cg }

// NewResolver implements interference.Model, serial whatever workers
// asks: a transmission goes through when its link is unique in the
// slot and no other transmitting link conflicts with it. All buffers
// are reused across calls — steady-state resolution performs no
// allocations.
func (m *Model) NewResolver(int) (func(tx []int) []bool, func() interference.ResolveStats) {
	s := interference.NewResolverScratch(m.cg.n)
	resolve := func(tx []int) []bool {
		out := s.Begin(tx)
		for i, e := range tx {
			if s.Counts[e] != 1 {
				continue
			}
			clear := true
			for _, e2 := range s.Uniq {
				if e2 != e && m.cg.Conflicts(e, e2) {
					clear = false
					break
				}
			}
			out[i] = clear
		}
		s.End(tx)
		return out
	}
	return resolve, interference.SerialStats
}
