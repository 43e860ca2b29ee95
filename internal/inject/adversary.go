package inject

import (
	"fmt"
	"math/rand"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// Adversary is a (w, λ)-bounded injection process: over every interval
// of w slots the injected request vector R satisfies ‖W·R‖∞ ≤ w·λ.
type Adversary interface {
	Process
	// Window returns the adversary's window length w.
	Window() int
}

// Timing describes where inside its window a pattern adversary places
// its packets.
type Timing int

// Pattern timings.
const (
	// TimingBurst injects the whole window budget in the first slot.
	TimingBurst Timing = iota + 1
	// TimingSpread spreads injections evenly across the window.
	TimingSpread
	// TimingSawtooth injects the whole budget in the last slot of the
	// window, maximizing the age pressure on the following window.
	TimingSawtooth
)

// String returns the timing name.
func (t Timing) String() string {
	switch t {
	case TimingBurst:
		return "burst"
	case TimingSpread:
		return "spread"
	case TimingSawtooth:
		return "sawtooth"
	default:
		return fmt.Sprintf("Timing(%d)", int(t))
	}
}

// Pattern is a deterministic (w, λ)-bounded adversary that cycles
// through a fixed list of candidate paths. Per window it injects as many
// packets as the budget w·λ admits (measured exactly against the model),
// placing them according to the timing. In rotating mode every window's
// budget is concentrated on a single path, cycling across windows — the
// attack that stresses each part of the network in turn.
type Pattern struct {
	model  interference.Model
	paths  []netgraph.Path
	w      int
	lambda float64
	timing Timing
	rotate bool

	// unitMeasure[i] = ‖W·R_paths[i]‖∞, used to price each injection.
	unitMeasure []float64

	nextID    int64
	nextPath  int
	spent     float64 // total measure injected (checkpointed)
	windows   int64
	pending   []Packet
	stepBuf   []Packet // Step result buffer, reused across slots
	windowTop int64    // first slot of the current window
}

var _ Adversary = (*Pattern)(nil)

// NewPattern builds a pattern adversary. The price of injecting one
// packet on path P is charged conservatively as ‖W·R_P‖∞, which makes
// every generated sequence (w, λ)-admissible regardless of path mixture
// (the true combined measure is never larger than the sum of the parts,
// by sub-additivity of ‖·‖∞ over non-negative vectors).
func NewPattern(m interference.Model, paths []netgraph.Path, w int, lambda float64, timing Timing) (*Pattern, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("inject: pattern adversary needs at least one path")
	}
	if w < 1 {
		return nil, fmt.Errorf("inject: window %d must be at least 1", w)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("inject: rate %v must be positive", lambda)
	}
	p := &Pattern{model: m, paths: paths, w: w, lambda: lambda, timing: timing}
	p.unitMeasure = make([]float64, len(paths))
	for i, path := range paths {
		if err := validatePathLinks(m.NumLinks(), path); err != nil {
			return nil, err
		}
		p.unitMeasure[i] = interference.Measure(m, PathRequests(m.NumLinks(), path))
		if p.unitMeasure[i] <= 0 {
			return nil, fmt.Errorf("inject: path %d has zero measure", i)
		}
	}
	return p, nil
}

// NewRotating builds a pattern adversary in rotating mode: window k
// spends its whole budget on path k mod len(paths).
func NewRotating(m interference.Model, paths []netgraph.Path, w int, lambda float64, timing Timing) (*Pattern, error) {
	p, err := NewPattern(m, paths, w, lambda, timing)
	if err != nil {
		return nil, err
	}
	p.rotate = true
	return p, nil
}

func validatePathLinks(numLinks int, p netgraph.Path) error {
	if len(p) == 0 {
		return fmt.Errorf("inject: empty path")
	}
	for _, e := range p {
		if e < 0 || int(e) >= numLinks {
			return fmt.Errorf("inject: path link %d out of range [0,%d)", e, numLinks)
		}
	}
	return nil
}

// Name implements Process.
func (p *Pattern) Name() string {
	if p.rotate {
		return fmt.Sprintf("adversary-rotating-%s(w=%d)", p.timing, p.w)
	}
	return fmt.Sprintf("adversary-%s(w=%d)", p.timing, p.w)
}

// Rate implements Process.
func (p *Pattern) Rate() float64 { return p.lambda }

// Window implements Adversary.
func (p *Pattern) Window() int { return p.w }

// planWindow decides the packets of the window starting at slot t0. The
// spend per window never exceeds w·λ — unspent budget is forfeited, not
// carried over, since a carried-over burst would overload some sliding
// window.
func (p *Pattern) planWindow(t0 int64) {
	p.windowTop = t0
	p.windows++
	budget := float64(p.w) * p.lambda
	// Reuse the previous window's plan buffer: by the time a new window
	// is planned every pending packet has been emitted (or is discarded
	// with the plan, exactly as before).
	packets := p.pending[:0]
	if p.rotate {
		// Concentrate the whole window on one path.
		idx := int((p.windows - 1) % int64(len(p.paths)))
		price := p.unitMeasure[idx]
		for price <= budget {
			budget -= price
			p.spent += price
			p.nextID++
			packets = append(packets, Packet{ID: p.nextID, Path: p.paths[idx]})
		}
	} else {
		for {
			price := p.unitMeasure[p.nextPath]
			if price > budget {
				break
			}
			budget -= price
			p.spent += price
			p.nextID++
			packets = append(packets, Packet{ID: p.nextID, Path: p.paths[p.nextPath]})
			p.nextPath = (p.nextPath + 1) % len(p.paths)
		}
	}
	// Stamp slots according to the timing.
	for i := range packets {
		switch p.timing {
		case TimingBurst:
			packets[i].Injected = t0
		case TimingSawtooth:
			packets[i].Injected = t0 + int64(p.w) - 1
		default: // TimingSpread
			packets[i].Injected = t0 + int64(i*p.w/len(packets))
		}
	}
	p.pending = packets
}

// Step implements Process. The result is written into a buffer reused
// across slots (see the Process contract).
func (p *Pattern) Step(t int64, rng *rand.Rand) []Packet {
	if t%int64(p.w) == 0 {
		p.planWindow(t)
	}
	out := p.stepBuf[:0]
	rest := p.pending[:0]
	for _, pkt := range p.pending {
		if pkt.Injected == t {
			out = append(out, pkt)
		} else {
			rest = append(rest, pkt)
		}
	}
	p.pending = rest
	p.stepBuf = out
	return out
}

// Checker verifies on-line that an injection sequence is (w, λ)-bounded,
// over every sliding window of w slots. It is used by tests to certify
// that every adversary implementation honours its contract.
//
// The window measure is maintained incrementally: each packet hop
// entering or leaving the window costs O(nnz) of its link's weight
// column rather than an O(E²) recomputation per slot. The accumulator
// is resynced exactly once per window length, so floating-point drift
// stays far below the checker's rounding slack.
type Checker struct {
	model   interference.Model
	w       int
	budget  float64 // w·λ, with slack for float rounding
	slots   [][]int // ring buffer of per-slot request vectors
	head    int
	filled  int
	meas    *interference.IncrementalMeasure
	steps   int   // Observe calls since the last exact resync
	touched []int // scratch: links the current slot injects on
}

// NewChecker creates a checker for the given window and rate.
func NewChecker(m interference.Model, w int, lambda float64) *Checker {
	c := &Checker{
		model:  m,
		w:      w,
		budget: float64(w)*lambda + 1e-9,
		slots:  make([][]int, w),
		meas:   interference.NewIncremental(m),
	}
	for i := range c.slots {
		c.slots[i] = make([]int, m.NumLinks())
	}
	return c
}

// Observe records the packets injected at one slot (call once per slot,
// in order) and returns an error if any window constraint is violated.
func (c *Checker) Observe(pkts []Packet) error {
	// Expire the slot leaving the window, one column scan per link.
	old := c.slots[c.head]
	for e, cnt := range old {
		if cnt > 0 {
			c.meas.RemoveN(e, cnt)
			old[e] = 0
		}
	}
	// Aggregate the slot's injections per link (old is all-zero here),
	// then apply each link's delta in a single column scan.
	c.touched = c.touched[:0]
	for _, pkt := range pkts {
		for _, e := range pkt.Path {
			if old[e] == 0 {
				c.touched = append(c.touched, int(e))
			}
			old[e]++
		}
	}
	for _, e := range c.touched {
		c.meas.AddN(e, old[e])
	}
	c.head = (c.head + 1) % c.w
	if c.filled < c.w {
		c.filled++
	}
	if c.steps++; c.steps >= c.w {
		c.meas.Resync()
		c.steps = 0
	}
	if meas := c.meas.Measure(); meas > c.budget {
		return fmt.Errorf("inject: window measure %.6f exceeds budget %.6f", meas, c.budget)
	}
	return nil
}
