package dynsched

import (
	"sync"
	"sync/atomic"
)

// ModelCache compiles scenarios like Scenario.Compile but builds each
// network — graph, routes and interference model — at most once while
// it stays cached, and shares it between the compilations that need it.
// Two scenarios share a network when they differ only in what a run
// varies: seeds (except where the topology draws its placement from
// the workload seed), traffic, loss, protocol, slot count or trace.
// Every compilation still gets its own injection process, protocol,
// loss wrapper and observers, and its results are byte-identical to a
// fresh Scenario.Compile's.
//
// The shared models are immutable or keep their lazy state (the
// analysis matrix) behind sync.Once, and each run builds its own
// resolver (interference.Model.NewResolver) with its own scratch and
// accounting, so runs on one model may overlap.
//
// The cache holds one network. That serves the traffic it is for — a
// stream of runs on one fixed network. Traffic that changes network per
// request (a placement drawn from each request's seed, or families
// taken in turn) misses at any small size, and a 10⁶-link indexed model
// is ~350 MB, so there is no second entry. A network is built by one
// caller at a time — concurrent callers for the same network wait for
// that build — and a failed build is not cached. It is safe for
// concurrent use.
type ModelCache struct {
	mu   sync.Mutex
	last *modelEntry // the cached network, or the one being built

	hits, misses atomic.Uint64
}

// modelEntry is one network. once guards the build, so waiters on an
// entry under construction block until it is done.
type modelEntry struct {
	key  networkKey
	once sync.Once
	net  *network
	err  error
}

// NewModelCache returns an empty cache.
func NewModelCache() *ModelCache { return &ModelCache{} }

// Compile validates the scenario and builds its components on the
// cached network, building the network first when it is not cached.
func (c *ModelCache) Compile(s Scenario) (*CompiledScenario, error) {
	return s.compileOn(c.network)
}

// Stats reports how many compilations found their network cached
// (including ones that waited for its build) and how many built it.
func (c *ModelCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// network returns the network for key, building it on a miss.
func (c *ModelCache) network(key networkKey) (*network, error) {
	c.mu.Lock()
	e := c.last
	if e != nil && e.key == key {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		e = &modelEntry{key: key}
		c.last = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.net, e.err = buildNetwork(key) })
	if e.err != nil {
		c.mu.Lock()
		if c.last == e {
			c.last = nil
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.net, nil
}
