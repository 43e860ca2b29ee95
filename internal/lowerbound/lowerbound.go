// Package lowerbound implements the Theorem 20 / Figure 1 instance: a
// uniform-power SINR network with m−1 interference-free short links and
// one long link that succeeds only when every short link is silent.
// With a global clock, even/odd TDM is stable for per-link arrival
// probability λ < 1/2; with only local clocks, any acknowledgement-based
// protocol lets the short links desynchronize and the long link starves
// once λ ≥ ln m / m.
package lowerbound

import (
	"math/rand"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
)

// Model is the Figure 1 interference structure over m links: links
// 0..m-2 are the short links, link m-1 is the long link.
type Model struct {
	M int
}

var _ interference.Model = Model{}

// Long returns the ID of the long link.
func (m Model) Long() int { return m.M - 1 }

// Name implements interference.Model.
func (Model) Name() string { return "figure1" }

// NumLinks implements interference.Model.
func (m Model) NumLinks() int { return m.M }

// Weight implements interference.Model: the long link is affected by
// everything; short links only by themselves.
func (m Model) Weight(e, e2 int) float64 {
	if e == e2 {
		return 1
	}
	if e == m.Long() {
		return 1
	}
	return 0
}

// NewResolver implements interference.Model, serial whatever workers
// asks: a short link succeeds whenever it carries one packet; the long
// link succeeds only alone.
func (m Model) NewResolver(int) (func(tx []int) []bool, func() interference.ResolveStats) {
	s := interference.NewResolverScratch(m.M)
	resolve := func(tx []int) []bool {
		out := s.Begin(tx)
		for i, e := range tx {
			if s.Counts[e] != 1 {
				continue
			}
			if e == m.Long() {
				out[i] = len(tx) == 1
			} else {
				out[i] = true
			}
		}
		s.End(tx)
		return out
	}
	return resolve, interference.SerialStats
}

// Network returns a single-hop graph whose m links match the model, and
// the per-link single-hop paths.
func Network(m int) (*netgraph.Graph, []netgraph.Path) {
	g := netgraph.MACChannel(m) // geometry-free m-link graph
	paths := make([]netgraph.Path, m)
	for e := 0; e < m; e++ {
		paths[e] = netgraph.Path{netgraph.LinkID(e)}
	}
	return g, paths
}

// PerLinkBernoulli builds the theorem's injection: each link receives a
// packet with probability lambda in every slot, independently.
func PerLinkBernoulli(model interference.Model, paths []netgraph.Path, lambda float64) (*inject.Stochastic, error) {
	gens := make([]inject.Generator, len(paths))
	for i, p := range paths {
		gens[i] = inject.Generator{Choices: []inject.PathChoice{{Path: p, P: lambda}}}
	}
	return inject.NewStochastic(model, gens)
}

// GlobalTDM is the global-clock protocol of Theorem 20's positive side:
// short links transmit in even slots, the long link in odd slots.
// Stable whenever the per-link arrival probability is below 1/2.
type GlobalTDM struct {
	model Model
	q     [][]int64 // per-link FIFO of packet IDs
	held  int
}

var _ sim.Protocol = (*GlobalTDM)(nil)

// NewGlobalTDM builds the protocol.
func NewGlobalTDM(m Model) *GlobalTDM {
	return &GlobalTDM{model: m, q: make([][]int64, m.M)}
}

// Name implements sim.Protocol.
func (*GlobalTDM) Name() string { return "global-tdm" }

// QueueLen returns the number of packets held.
func (p *GlobalTDM) QueueLen() int { return p.held }

// Inject implements sim.Protocol.
func (p *GlobalTDM) Inject(t int64, pkts []inject.Packet) {
	for _, ip := range pkts {
		e := int(ip.Path[0])
		p.q[e] = append(p.q[e], ip.ID)
		p.held++
	}
}

// Slot implements sim.Protocol.
func (p *GlobalTDM) Slot(t int64, rng *rand.Rand) []sim.Transmission {
	long := p.model.Long()
	if t%2 == 1 {
		if len(p.q[long]) > 0 {
			return []sim.Transmission{{Link: long, PacketID: p.q[long][0]}}
		}
		return nil
	}
	var out []sim.Transmission
	for e := 0; e < long; e++ {
		if len(p.q[e]) > 0 {
			out = append(out, sim.Transmission{Link: e, PacketID: p.q[e][0]})
		}
	}
	return out
}

// Feedback implements sim.Protocol.
func (p *GlobalTDM) Feedback(t int64, tx []sim.Transmission, success []bool) {
	for i, w := range tx {
		if success[i] {
			p.q[w.Link] = p.q[w.Link][1:]
			p.held--
		}
	}
}

// LocalGreedy is the natural acknowledgement-based local-clock protocol:
// every link transmits its head-of-line packet whenever its queue is
// non-empty. Short links never see failures (their transmissions always
// succeed), so no acknowledgement-based rule could teach them to
// synchronize pauses — which is exactly Theorem 20's point. The long
// link transmits persistently and succeeds only in the rare slots where
// every short link happens to be idle.
type LocalGreedy struct {
	model Model
	q     [][]int64
	held  int
	// LongSuccesses counts deliveries on the long link.
	LongSuccesses int64
}

var _ sim.Protocol = (*LocalGreedy)(nil)

// NewLocalGreedy builds the protocol.
func NewLocalGreedy(m Model) *LocalGreedy {
	return &LocalGreedy{model: m, q: make([][]int64, m.M)}
}

// Name implements sim.Protocol.
func (*LocalGreedy) Name() string { return "local-greedy" }

// QueueLen returns the number of packets held.
func (p *LocalGreedy) QueueLen() int { return p.held }

// LongQueueLen returns the long link's queue length.
func (p *LocalGreedy) LongQueueLen() int { return len(p.q[p.model.Long()]) }

// Inject implements sim.Protocol.
func (p *LocalGreedy) Inject(t int64, pkts []inject.Packet) {
	for _, ip := range pkts {
		e := int(ip.Path[0])
		p.q[e] = append(p.q[e], ip.ID)
		p.held++
	}
}

// Slot implements sim.Protocol.
func (p *LocalGreedy) Slot(t int64, rng *rand.Rand) []sim.Transmission {
	var out []sim.Transmission
	for e := range p.q {
		if len(p.q[e]) > 0 {
			out = append(out, sim.Transmission{Link: e, PacketID: p.q[e][0]})
		}
	}
	return out
}

// Feedback implements sim.Protocol.
func (p *LocalGreedy) Feedback(t int64, tx []sim.Transmission, success []bool) {
	for i, w := range tx {
		if success[i] {
			p.q[w.Link] = p.q[w.Link][1:]
			p.held--
			if w.Link == p.model.Long() {
				p.LongSuccesses++
			}
		}
	}
}
