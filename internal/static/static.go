// Package static implements algorithms for the static scheduling
// problem: given a set of single-hop transmission requests with
// interference measure I, deliver all of them in few time slots. The
// paper's dynamic protocol (package core) is a black-box transformation
// over any such algorithm, parameterised only by its schedule-length
// contract f(m)·I + g(m, n).
//
// Algorithms are exposed as slot-steppable executions so the dynamic
// protocol can interleave them with packet injection: each slot the
// execution names the requests that transmit, and afterwards it observes
// which of them were received (acknowledgement-based feedback only).
package static

import (
	"fmt"
	"math/rand"

	"dynsched/internal/interference"
)

// Request is a single-hop transmission demand on a link. Tag is opaque
// caller context (typically a packet ID).
type Request struct {
	Link int
	Tag  int64
}

// Execution is a running instance of a static algorithm, advanced one
// slot at a time by the caller.
type Execution interface {
	// Attempts returns the indices (into the request slice the execution
	// was created with) of the requests transmitting this slot. Indices
	// must be distinct; two returned requests may share a link, in which
	// case the model will fail both (link capacity one). The returned
	// slice is only valid until the next Attempts call — executions may
	// reuse it.
	Attempts(rng *rand.Rand) []int
	// Observe reports the outcome for each index returned by Attempts.
	Observe(attempted []int, success []bool)
	// Done reports whether every request has been served.
	Done() bool
	// Remaining returns the number of unserved requests.
	Remaining() int
}

// Algorithm constructs executions and advertises its schedule-length
// contract.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// NewExecution starts the algorithm on the given requests.
	NewExecution(m interference.Model, reqs []Request) Execution
	// Budget returns a slot budget within which the algorithm delivers
	// all requests with high probability, for a network with numLinks
	// links, interference measure at most meas, and at most n requests.
	// This is the f(m)·I + g(m,n) contract the dynamic protocol sizes
	// its time frames with.
	Budget(numLinks int, meas float64, n int) int
}

// Recycler is an optional Algorithm extension for hot callers that
// start executions at a steady cadence (the dynamic protocol starts two
// per frame). RecycleExecution has the semantics of NewExecution, but
// may rebuild into the buffers of prev — an execution previously
// returned by the same algorithm that the caller no longer uses. The
// returned execution behaves identically to a fresh one (same state,
// same randomness consumption); only the allocations differ. A nil or
// foreign prev falls back to a fresh execution.
type Recycler interface {
	Algorithm
	RecycleExecution(prev Execution, m interference.Model, reqs []Request) Execution
}

// MeasureBounded is implemented by algorithms that can run against a
// declared interference-measure bound instead of inspecting the request
// set. This is the distributed-fidelity hook: the paper's dynamic
// protocol executes A(J, m·J) — the parameter J = (1+ε)λT is known to
// every node from the static deployment data (λ, ε, T), whereas the
// actual measure of the live request set is global information no
// distributed node could compute.
type MeasureBounded interface {
	Algorithm
	// WithMeasureBound returns a variant of the algorithm that assumes
	// the instance measure is at most meas.
	WithMeasureBound(meas float64) Algorithm
}

// Result summarises a standalone run of a static algorithm.
type Result struct {
	// Served[i] reports whether request i was delivered.
	Served []bool
	// Slots is the number of slots consumed (up to the budget).
	Slots int
	// Attempts counts individual transmission attempts.
	Attempts int64
}

// AllServed reports whether every request was delivered.
func (r Result) AllServed() bool {
	for _, ok := range r.Served {
		if !ok {
			return false
		}
	}
	return true
}

// NumServed returns the number of delivered requests.
func (r Result) NumServed() int {
	c := 0
	for _, ok := range r.Served {
		if ok {
			c++
		}
	}
	return c
}

// Run drives an execution to completion against the model, spending at
// most maxSlots slots (maxSlots ≤ 0 means the algorithm's own budget).
func Run(rng *rand.Rand, m interference.Model, alg Algorithm, reqs []Request, maxSlots int) Result {
	if maxSlots <= 0 {
		meas := RequestMeasure(m, reqs)
		maxSlots = alg.Budget(m.NumLinks(), meas, len(reqs))
	}
	exec := alg.NewExecution(m, reqs)
	res := Result{Served: make([]bool, len(reqs))}
	resolve, _ := m.NewResolver(0)
	var tx []int
	for res.Slots < maxSlots && !exec.Done() {
		attempted := exec.Attempts(rng)
		res.Slots++
		if len(attempted) == 0 {
			continue
		}
		res.Attempts += int64(len(attempted))
		if cap(tx) < len(attempted) {
			tx = make([]int, len(attempted), 2*len(attempted))
		}
		tx = tx[:len(attempted)]
		for i, idx := range attempted {
			tx[i] = reqs[idx].Link
		}
		success := resolve(tx)
		exec.Observe(attempted, success)
		for i, idx := range attempted {
			if success[i] {
				res.Served[idx] = true
			}
		}
	}
	return res
}

// RequestMeasure computes the interference measure ‖W·R‖∞ of a request
// multiset.
func RequestMeasure(m interference.Model, reqs []Request) float64 {
	r := make([]int, m.NumLinks())
	for _, q := range reqs {
		if q.Link < 0 || q.Link >= len(r) {
			panic(fmt.Sprintf("static: request link %d out of range [0,%d)", q.Link, len(r)))
		}
		r[q.Link]++
	}
	return interference.Measure(m, r)
}

// pendingSet tracks unserved request indices grouped by link, with O(1)
// random selection and removal per link. It is the common bookkeeping of
// the randomized algorithms.
type pendingSet struct {
	byLink  [][]int // link → indices of pending requests, a capped view into flat
	pos     []int   // request index → position within its link slice, -1 when served
	links   []int   // request index → link
	flat    []int   // every request index, grouped by link, ascending within a link
	start   []int   // link → offset of its group in flat; start[numLinks] = len(flat)
	pending int
}

func newPendingSet(numLinks int, reqs []Request) *pendingSet {
	p := &pendingSet{}
	p.reset(numLinks, reqs)
	return p
}

// reset rebuilds the set for a new request batch, reusing every buffer
// that is large enough. The resulting state is identical to a freshly
// constructed set. The per-link lists are one counting sort of the
// batch by link, so each link lists its requests in batch order and the
// set allocates nothing per link.
func (p *pendingSet) reset(numLinks int, reqs []Request) {
	if cap(p.byLink) < numLinks {
		p.byLink = make([][]int, numLinks)
	} else {
		p.byLink = p.byLink[:numLinks]
	}
	p.pos = resizeInts(p.pos, len(reqs))
	p.links = resizeInts(p.links, len(reqs))
	p.flat = resizeInts(p.flat, len(reqs))
	p.start = resizeInts(p.start, numLinks+1)
	clear(p.start)
	p.pending = len(reqs)
	// start[l+1] first counts link l's requests, then becomes the end of
	// its group by a prefix sum.
	for i, q := range reqs {
		p.links[i] = q.Link
		p.pos[i] = p.start[q.Link+1]
		p.start[q.Link+1]++
	}
	for l := 0; l < numLinks; l++ {
		p.start[l+1] += p.start[l]
	}
	for i, l := range p.links {
		p.flat[p.start[l]+p.pos[i]] = i
	}
	for l := range p.byLink {
		lo, hi := p.start[l], p.start[l+1]
		p.byLink[l] = p.flat[lo:hi:hi]
	}
}

// resizeInts returns buf resized to n entries (contents unspecified),
// reallocating only when the capacity is insufficient. Growth is
// geometric (at least double), so a buffer resized to a slowly climbing
// n across frames reallocates O(log n) times rather than once per
// frame.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		c := 2 * cap(buf)
		if c < n {
			c = n
		}
		return make([]int, n, c)
	}
	return buf[:n]
}

// remove marks request idx as served.
func (p *pendingSet) remove(idx int) {
	if p.pos[idx] < 0 {
		return
	}
	link := p.links[idx]
	slice := p.byLink[link]
	at := p.pos[idx]
	last := len(slice) - 1
	slice[at] = slice[last]
	p.pos[slice[at]] = at
	p.byLink[link] = slice[:last]
	p.pos[idx] = -1
	p.pending--
}

// countOn returns the number of pending requests on link e.
func (p *pendingSet) countOn(e int) int { return len(p.byLink[e]) }

// pickOn returns k distinct pending request indices on link e chosen
// uniformly at random (k clamped to the pending count).
func (p *pendingSet) pickOn(rng *rand.Rand, e, k int) []int {
	slice := p.byLink[e]
	if k > len(slice) {
		k = len(slice)
	}
	if k == 0 {
		return nil
	}
	if k == 1 {
		return []int{slice[rng.Intn(len(slice))]}
	}
	// Partial Fisher–Yates over a copy of the first positions.
	idxs := rng.Perm(len(slice))[:k]
	out := make([]int, k)
	for i, j := range idxs {
		out[i] = slice[j]
	}
	return out
}
