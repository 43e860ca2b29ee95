// Package radio implements the radio-network (broadcast) interference
// model the paper lists in Section 7.2: a node receives a transmission
// exactly when precisely one of its in-range neighbours transmits — two
// simultaneous transmissions in range collide at the receiver, and a
// transmitting node cannot receive. On disk graphs the derived conflict
// graph has constant inductive independence, so the paper's framework
// yields O(log m)-competitive protocols here.
package radio

import (
	"dynsched/internal/conflict"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// Model is the radio-network model over a communication graph: the
// graph's links define who can hear whom (link u→v means v hears u).
type Model struct {
	g *netgraph.Graph
	// hears[v] lists the nodes v can hear (senders of links into v).
	hears [][]netgraph.NodeID
	// cm is the derived conflict-graph model used for the W matrix.
	cm *conflict.Model
}

var _ interference.Model = (*Model)(nil)

// New builds the radio model on g, deriving the conflict graph (two
// links conflict when they cannot be served in the same slot) and its
// degeneracy-order W matrix.
func New(g *netgraph.Graph) (*Model, error) {
	m := &Model{g: g, hears: make([][]netgraph.NodeID, g.NumNodes())}
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, id := range g.In(v) {
			m.hears[v] = append(m.hears[v], g.Link(id).From)
		}
	}
	cg := conflict.NewGraph(g.NumLinks())
	links := g.Links()
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			if m.linksConflict(links[i], links[j]) {
				if err := cg.AddConflict(int(links[i].ID), int(links[j].ID)); err != nil {
					return nil, err
				}
			}
		}
	}
	cm, err := conflict.NewModel(cg, nil)
	if err != nil {
		return nil, err
	}
	m.cm = cm
	return m, nil
}

// linksConflict reports whether two links cannot succeed simultaneously
// under radio semantics.
func (m *Model) linksConflict(a, b netgraph.Link) bool {
	// Same sender or same receiver, or one's sender is the other's
	// receiver (a node cannot transmit and receive at once).
	if a.From == b.From || a.To == b.To || a.From == b.To || a.To == b.From {
		return true
	}
	// b's sender is audible at a's receiver → collision at a.To.
	if m.canHear(a.To, b.From) {
		return true
	}
	// a's sender is audible at b's receiver → collision at b.To.
	return m.canHear(b.To, a.From)
}

func (m *Model) canHear(listener, speaker netgraph.NodeID) bool {
	for _, s := range m.hears[listener] {
		if s == speaker {
			return true
		}
	}
	return false
}

// Name implements interference.Model.
func (m *Model) Name() string { return "radio-network" }

// NumLinks implements interference.Model.
func (m *Model) NumLinks() int { return m.g.NumLinks() }

// Weight implements interference.Model via the derived conflict matrix.
func (m *Model) Weight(e, e2 int) float64 { return m.cm.Weight(e, e2) }

// WeightRows implements interference.RowsProvider via the derived
// conflict matrix's CSR form.
func (m *Model) WeightRows() *interference.Sparse { return m.cm.WeightRows() }

// ConflictGraph exposes the derived conflict structure.
func (m *Model) ConflictGraph() *conflict.Graph { return m.cm.ConflictGraph() }

// NewResolver implements interference.Model with exact radio
// semantics, serial whatever workers asks: a transmission u→v is
// received iff u transmits exactly one packet, v hears exactly one
// transmitting node, v itself is silent, and the link carries one
// packet. The per-node sender loads live in a reused array that is
// reset through the list of nodes the slot touched, so steady-state
// resolution performs no allocations.
func (m *Model) NewResolver(int) (func(tx []int) []bool, func() interference.ResolveStats) {
	s := interference.NewResolverScratch(m.g.NumLinks())
	load := make([]int, m.g.NumNodes())                   // packets per transmitting node
	senders := make([]netgraph.NodeID, 0, m.g.NumNodes()) // nodes with load > 0
	resolve := func(tx []int) []bool {
		out := s.Begin(tx)
		for _, e := range tx {
			u := m.g.Link(netgraph.LinkID(e)).From
			if load[u] == 0 {
				senders = append(senders, u)
			}
			load[u]++
		}
		for i, e := range tx {
			if s.Counts[e] != 1 {
				continue
			}
			l := m.g.Link(netgraph.LinkID(e))
			if load[l.From] != 1 {
				continue // one radio cannot send two packets at once
			}
			if load[l.To] > 0 {
				continue // the receiver is busy transmitting
			}
			audible := 0
			for _, h := range m.hears[l.To] {
				if load[h] > 0 {
					audible++
				}
			}
			out[i] = audible == 1 // exactly the intended sender
		}
		for _, u := range senders {
			load[u] = 0
		}
		senders = senders[:0]
		s.End(tx)
		return out
	}
	return resolve, interference.SerialStats
}
