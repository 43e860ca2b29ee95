package netgraph

import (
	"errors"
	"fmt"
)

// Path is a sequence of link IDs a packet traverses in order. Paths may
// revisit nodes (the paper allows it) but consecutive links must connect.
type Path []LinkID

// Validate checks that the path is non-empty and consecutive links chain.
func (p Path) Validate(g *Graph) error {
	if len(p) == 0 {
		return errors.New("netgraph: empty path")
	}
	for i, id := range p {
		if id < 0 || int(id) >= g.NumLinks() {
			return fmt.Errorf("netgraph: path hop %d: link %d out of range", i, id)
		}
		if i > 0 && g.Link(p[i-1]).To != g.Link(id).From {
			return fmt.Errorf("netgraph: path hops %d→%d disconnected (link %d ends at %d, link %d starts at %d)",
				i-1, i, p[i-1], g.Link(p[i-1]).To, id, g.Link(id).From)
		}
	}
	return nil
}

// Source returns the first node of the path.
func (p Path) Source(g *Graph) NodeID { return g.Link(p[0]).From }

// Dest returns the final node of the path.
func (p Path) Dest(g *Graph) NodeID { return g.Link(p[len(p)-1]).To }

// ShortestPath returns a minimum-hop path from u to v using BFS over
// links, or false if v is unreachable. For u == v it returns an empty
// path and true.
func ShortestPath(g *Graph, u, v NodeID) (Path, bool) {
	if u == v {
		return Path{}, true
	}
	// prev[w] is the link that first reached node w.
	prev := make([]LinkID, g.NumNodes())
	for i := range prev {
		prev[i] = -1
	}
	queue := []NodeID{u}
	visited := make([]bool, g.NumNodes())
	visited[u] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, id := range g.Out(cur) {
			next := g.Link(id).To
			if visited[next] {
				continue
			}
			visited[next] = true
			prev[next] = id
			if next == v {
				return reconstruct(g, prev, u, v), true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

func reconstruct(g *Graph, prev []LinkID, u, v NodeID) Path {
	var rev Path
	for cur := v; cur != u; {
		id := prev[cur]
		rev = append(rev, id)
		cur = g.Link(id).From
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// RoutingTable precomputes shortest paths between all node pairs. It is
// intended for the moderate graph sizes the experiments use.
type RoutingTable struct {
	g     *Graph
	paths map[[2]NodeID]Path
}

// NewRoutingTable builds the all-pairs table by running BFS from every
// source node.
func NewRoutingTable(g *Graph) *RoutingTable {
	rt := &RoutingTable{g: g, paths: make(map[[2]NodeID]Path)}
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		rt.bfsFrom(u)
	}
	return rt
}

func (rt *RoutingTable) bfsFrom(u NodeID) {
	g := rt.g
	prev := make([]LinkID, g.NumNodes())
	for i := range prev {
		prev[i] = -1
	}
	visited := make([]bool, g.NumNodes())
	visited[u] = true
	queue := []NodeID{u}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, id := range g.Out(cur) {
			next := g.Link(id).To
			if visited[next] {
				continue
			}
			visited[next] = true
			prev[next] = id
			rt.paths[[2]NodeID{u, next}] = reconstruct(g, prev, u, next)
			queue = append(queue, next)
		}
	}
}

// Path returns the stored shortest path from u to v.
func (rt *RoutingTable) Path(u, v NodeID) (Path, bool) {
	if u == v {
		return Path{}, true
	}
	p, ok := rt.paths[[2]NodeID{u, v}]
	return p, ok
}

// Instance couples a graph with the path-length bound D and exposes the
// significant network size m = max(|E|, D) from Section 2.
type Instance struct {
	G *Graph
	D int
}

// NewInstance builds an instance; D below 1 is raised to 1.
func NewInstance(g *Graph, maxPathLen int) *Instance {
	if maxPathLen < 1 {
		maxPathLen = 1
	}
	return &Instance{G: g, D: maxPathLen}
}

// M returns the significant network size m = max(|E|, D).
func (in *Instance) M() int {
	if in.G.NumLinks() > in.D {
		return in.G.NumLinks()
	}
	return in.D
}
