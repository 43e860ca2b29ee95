// Package baseline provides reference protocols the experiments compare
// the paper's transformation against: the centralized max-weight
// scheduler of Tassiulas and Ephremides [40] (the throughput-optimal but
// non-distributed, non-polynomial reference the paper positions itself
// against), the multiple-access-channel fallback (the trivially
// O(m)-competitive protocol of Section 8), a greedy FIFO protocol, and
// Shortest-In-System (the universally stable adversarial-queueing policy
// of Andrews et al. [3]).
package baseline

import (
	"math/rand"
	"sort"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
)

// queues is the shared per-link FIFO bookkeeping of the baselines.
type queues struct {
	byLink  [][]*qpkt
	packets map[int64]*qpkt
}

type qpkt struct {
	id   int64
	path netgraph.Path // the injected route, shared read-only
	hop  int
}

func newQueues(numLinks int) *queues {
	return &queues{byLink: make([][]*qpkt, numLinks), packets: make(map[int64]*qpkt)}
}

func (q *queues) inject(pkts []inject.Packet) {
	for _, ip := range pkts {
		p := &qpkt{id: ip.ID, path: ip.Path}
		q.packets[p.id] = p
		q.byLink[ip.Path[0]] = append(q.byLink[ip.Path[0]], p)
	}
}

// head returns the head-of-line packet on link e, or nil.
func (q *queues) head(e int) *qpkt {
	if len(q.byLink[e]) == 0 {
		return nil
	}
	return q.byLink[e][0]
}

// advance moves the head packet of link e forward after a success.
func (q *queues) advance(e int) {
	p := q.byLink[e][0]
	q.byLink[e] = q.byLink[e][1:]
	p.hop++
	if p.hop == len(p.path) {
		delete(q.packets, p.id)
		return
	}
	next := p.path[p.hop]
	q.byLink[next] = append(q.byLink[next], p)
}

func (q *queues) total() int { return len(q.packets) }

// MaxWeight is the centralized scheduler of Tassiulas and Ephremides:
// each slot it greedily builds a feasible set of links in decreasing
// queue-length order (a polynomial surrogate for the NP-hard maximum
// weight feasible set; for matching-like conflict structures greedy is a
// 2-approximation). It needs global queue knowledge and a feasibility
// oracle — everything the paper's distributed protocol does without.
type MaxWeight struct {
	resolve func(tx []int) []bool // the model's feasibility oracle
	q       *queues
}

var _ sim.Protocol = (*MaxWeight)(nil)

// NewMaxWeight builds the scheduler for the model.
func NewMaxWeight(m interference.Model) *MaxWeight {
	resolve, _ := m.NewResolver(0)
	return &MaxWeight{resolve: resolve, q: newQueues(m.NumLinks())}
}

// Name implements sim.Protocol.
func (*MaxWeight) Name() string { return "max-weight" }

// QueueLen returns the number of packets held.
func (mw *MaxWeight) QueueLen() int { return mw.q.total() }

// Inject implements sim.Protocol.
func (mw *MaxWeight) Inject(t int64, pkts []inject.Packet) { mw.q.inject(pkts) }

// Slot implements sim.Protocol.
func (mw *MaxWeight) Slot(t int64, rng *rand.Rand) []sim.Transmission {
	type cand struct {
		link int
		qlen int
	}
	var cands []cand
	for e := range mw.q.byLink {
		if n := len(mw.q.byLink[e]); n > 0 {
			cands = append(cands, cand{link: e, qlen: n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].qlen != cands[j].qlen {
			return cands[i].qlen > cands[j].qlen
		}
		return cands[i].link < cands[j].link
	})
	var set []int
	for _, c := range cands {
		set = append(set, c.link)
		if !interference.SlotFeasible(mw.resolve, set) {
			set = set[:len(set)-1]
		}
	}
	out := make([]sim.Transmission, 0, len(set))
	for _, e := range set {
		out = append(out, sim.Transmission{Link: e, PacketID: mw.q.head(e).id})
	}
	return out
}

// Feedback implements sim.Protocol.
func (mw *MaxWeight) Feedback(t int64, tx []sim.Transmission, success []bool) {
	for i, w := range tx {
		if success[i] {
			mw.q.advance(w.Link)
		}
	}
}

// MACFallback serializes the whole network as if it were one
// multiple-access channel: a single transmission per slot, round-robin
// over non-empty links. It is the trivially O(m)-competitive protocol
// Section 8 mentions, and the yardstick for the lower-bound experiment.
type MACFallback struct {
	q    *queues
	next int
}

var _ sim.Protocol = (*MACFallback)(nil)

// NewMACFallback builds the fallback for a model with the given link count.
func NewMACFallback(numLinks int) *MACFallback {
	return &MACFallback{q: newQueues(numLinks)}
}

// Name implements sim.Protocol.
func (*MACFallback) Name() string { return "mac-fallback" }

// QueueLen returns the number of packets held.
func (mf *MACFallback) QueueLen() int { return mf.q.total() }

// Inject implements sim.Protocol.
func (mf *MACFallback) Inject(t int64, pkts []inject.Packet) { mf.q.inject(pkts) }

// Slot implements sim.Protocol.
func (mf *MACFallback) Slot(t int64, rng *rand.Rand) []sim.Transmission {
	n := len(mf.q.byLink)
	for i := 0; i < n; i++ {
		e := (mf.next + i) % n
		if p := mf.q.head(e); p != nil {
			mf.next = (e + 1) % n
			return []sim.Transmission{{Link: e, PacketID: p.id}}
		}
	}
	return nil
}

// Feedback implements sim.Protocol.
func (mf *MACFallback) Feedback(t int64, tx []sim.Transmission, success []bool) {
	for i, w := range tx {
		if success[i] {
			mf.q.advance(w.Link)
		}
	}
}

// FIFOGreedy transmits the head-of-line packet of every non-empty link
// in every slot. It is optimal for the identity (packet-routing) model
// and an instructive failure case under real interference.
type FIFOGreedy struct {
	q *queues
}

var _ sim.Protocol = (*FIFOGreedy)(nil)

// NewFIFOGreedy builds the protocol for a model with the given link count.
func NewFIFOGreedy(numLinks int) *FIFOGreedy {
	return &FIFOGreedy{q: newQueues(numLinks)}
}

// Name implements sim.Protocol.
func (*FIFOGreedy) Name() string { return "fifo-greedy" }

// QueueLen returns the number of packets held.
func (fg *FIFOGreedy) QueueLen() int { return fg.q.total() }

// Inject implements sim.Protocol.
func (fg *FIFOGreedy) Inject(t int64, pkts []inject.Packet) { fg.q.inject(pkts) }

// Slot implements sim.Protocol.
func (fg *FIFOGreedy) Slot(t int64, rng *rand.Rand) []sim.Transmission {
	var out []sim.Transmission
	for e := range fg.q.byLink {
		if p := fg.q.head(e); p != nil {
			out = append(out, sim.Transmission{Link: e, PacketID: p.id})
		}
	}
	return out
}

// Feedback implements sim.Protocol.
func (fg *FIFOGreedy) Feedback(t int64, tx []sim.Transmission, success []bool) {
	for i, w := range tx {
		if success[i] {
			fg.q.advance(w.Link)
		}
	}
}
