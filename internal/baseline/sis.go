package baseline

import (
	"math/rand"

	"dynsched/internal/inject"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
)

// SIS is the Shortest-In-System greedy policy of Andrews et al. [3],
// the classic universally stable contention-resolution protocol for
// adversarial packet routing: every non-empty link transmits, choosing
// the packet that entered the system most recently. Like FIFOGreedy it
// ignores interference between links, so it is a packet-routing
// (identity-model) baseline — under real interference models it shows
// why the paper's geometry-aware protocol is needed.
type SIS struct {
	byLink [][]*sisPkt
}

type sisPkt struct {
	id       int64
	path     netgraph.Path // the injected route, shared read-only
	hop      int
	injected int64
}

var _ sim.Protocol = (*SIS)(nil)

// NewSIS builds the protocol for a model with the given link count.
func NewSIS(numLinks int) *SIS {
	return &SIS{byLink: make([][]*sisPkt, numLinks)}
}

// Name implements sim.Protocol.
func (*SIS) Name() string { return "shortest-in-system" }

// Inject implements sim.Protocol.
func (s *SIS) Inject(t int64, pkts []inject.Packet) {
	for _, ip := range pkts {
		p := &sisPkt{id: ip.ID, path: ip.Path, injected: ip.Injected}
		s.byLink[ip.Path[0]] = append(s.byLink[ip.Path[0]], p)
	}
}

// pick returns the index of the most recently injected packet queued on
// link e, or -1.
func (s *SIS) pick(e int) int {
	best := -1
	for i, p := range s.byLink[e] {
		if best == -1 || p.injected > s.byLink[e][best].injected ||
			(p.injected == s.byLink[e][best].injected && p.id > s.byLink[e][best].id) {
			best = i
		}
	}
	return best
}

// Slot implements sim.Protocol.
func (s *SIS) Slot(t int64, rng *rand.Rand) []sim.Transmission {
	var out []sim.Transmission
	for e := range s.byLink {
		if i := s.pick(e); i >= 0 {
			out = append(out, sim.Transmission{Link: e, PacketID: s.byLink[e][i].id})
		}
	}
	return out
}

// Feedback implements sim.Protocol.
func (s *SIS) Feedback(t int64, tx []sim.Transmission, success []bool) {
	for i, w := range tx {
		if !success[i] {
			continue
		}
		// Locate and remove the packet from its queue.
		q := s.byLink[w.Link]
		for j, p := range q {
			if p.id != w.PacketID {
				continue
			}
			s.byLink[w.Link] = append(q[:j], q[j+1:]...)
			p.hop++
			if p.hop < len(p.path) {
				next := p.path[p.hop]
				s.byLink[next] = append(s.byLink[next], p)
			}
			break
		}
	}
}
