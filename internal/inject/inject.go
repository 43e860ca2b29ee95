// Package inject implements the paper's two packet-injection models
// (Section 2.1): time-invariant finite-user stochastic injection, and
// the (w, λ)-bounded window adversary. Both bound the average
// interference measure of injected requests per slot by the injection
// rate λ: with F the expected per-slot request vector, every component
// of W·F is at most λ (stochastic), and over any w consecutive slots the
// injected request vector R satisfies ‖W·R‖∞ ≤ w·λ (adversarial).
//
// The stochastic model fixes only a law: each slot, each generator
// injects independently, on path P with probability p(P). Stochastic
// samples exactly that law in O(classes + packets) per slot rather than
// one draw per generator, by geometric skips over power-of-two
// probability classes (see Stochastic). Which engine RNG draws it makes
// is therefore part of the engine's stream version (sim.StreamVersion).
package inject

import (
	"fmt"
	"math"
	"math/rand"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// Packet is an injected communication request with a fixed path.
type Packet struct {
	ID int64
	// Path is shared, read-only, for the packet's whole lifetime: the
	// engine and protocols keep this slice (not a copy) until delivery,
	// and packets on the same route typically share one backing array.
	// Neither the process nor any consumer may ever write to it.
	Path     netgraph.Path
	Injected int64 // slot of injection
}

// Process produces the packets arriving in each slot.
type Process interface {
	// Name identifies the process in experiment output.
	Name() string
	// Step returns the packets injected at slot t. Implementations
	// assign fresh packet IDs and stamp Injected = t. The returned slice
	// is only valid until the next Step call — implementations may reuse
	// it, so callers that keep packets across slots must copy them. The
	// Path slices, by contrast, are retained as they are: a process must
	// hand out a path that is never written again (its own immutable
	// route table, say), never a reused buffer.
	Step(t int64, rng *rand.Rand) []Packet
	// Rate returns the nominal injection rate λ.
	Rate() float64
}

// PathRequests converts a path into its per-link request multiset,
// counting multiplicity for paths that reuse a link.
func PathRequests(numLinks int, p netgraph.Path) []int {
	r := make([]int, numLinks)
	for _, e := range p {
		r[e]++
	}
	return r
}

// PathChoice is one option of a stochastic generator: with probability
// P, inject a packet routed along Path.
type PathChoice struct {
	Path netgraph.Path
	P    float64
}

// Generator is one of the finite users of the stochastic model: per
// slot it injects at most one packet, choosing among its paths with
// fixed probabilities (identically distributed across slots, independent
// of everything else).
type Generator struct {
	Choices []PathChoice
}

// Validate checks that the generator's probabilities form a
// sub-distribution. NaN fails both comparisons, so it is rejected too.
func (g Generator) Validate() error {
	sum := 0.0
	for i, c := range g.Choices {
		if !(c.P >= 0) {
			return fmt.Errorf("inject: generator choice %d has negative or NaN probability %v", i, c.P)
		}
		if len(c.Path) == 0 {
			return fmt.Errorf("inject: generator choice %d has empty path", i)
		}
		sum += c.P
	}
	if !(sum <= 1+1e-12) {
		return fmt.Errorf("inject: generator probabilities sum to %v > 1", sum)
	}
	return nil
}

// Stochastic is the finite-user stochastic injection process.
//
// A slot costs O(classes + packets), not O(generators). Generators are
// bucketed into classes by the binary exponent of their total
// probability q (a total within rounding slack above 1 counts as 1).
// Each slot, each class walks its members with geometric gaps at the
// class maximum q_max, which makes every member a candidate
// independently with probability q_max. A candidate draws one
// u ∈ [0, q_max): it injects on the choice whose cumulative band holds
// u and stays silent past the last band. Choice c of generator g thus
// fires with probability P_c, exactly the model's law; since all q in a
// class lie in (q_max/2, q_max] (below 2⁻⁶², see numClasses), fewer
// than half the candidates are rejected on average. The walk restarts every slot, so no sampler
// position outlives a slot.
type Stochastic struct {
	// choices holds the choices of every generator with nonzero total,
	// reordered so each class is a contiguous run of generators:
	// generator i owns choices[start[i]:start[i+1]]. The offsets are
	// int32 to keep the table small; 2³¹ choices would need 64 GiB.
	choices []PathChoice
	start   []int32
	classes []class

	rate       float64
	packetRate float64
	nextID     int64
	buf        []Packet // Step result buffer, reused across slots
}

// class is one power-of-two probability class: generators [lo, hi) of
// the reordered table, whose largest total is qmax.
type class struct {
	lo, hi int
	qmax   float64
	// gapScale is 1/-log1p(-qmax): an Exp(1) variate times it, floored,
	// is a Geometric(qmax) gap, the number of members skipped before
	// the next candidate. Unused when qmax is 1.
	gapScale float64
}

// numClasses bounds the class count: class k holds the totals in
// [2⁻ᵏ, 2¹⁻ᵏ), and the last class every total below 2⁻⁶². The law stays
// exact there too; only the acceptance ratio of that class is no longer
// bounded, and its candidates are too rare to cost anything.
const numClasses = 64

// NewStochastic builds the process and computes its exact injection
// rate λ = ‖W·F‖∞ against the given model.
func NewStochastic(m interference.Model, gens []Generator) (*Stochastic, error) {
	return newScaled(m, gens, 1)
}

// newScaled builds the process of the generators with every choice
// probability multiplied by factor. The scaled probabilities are
// computed exactly as ScaleGenerators computes them, but land only in
// the sampler's table: no scaled copy of the generators is built.
func newScaled(m interference.Model, gens []Generator, factor float64) (*Stochastic, error) {
	if !(factor >= 0) {
		return nil, fmt.Errorf("inject: negative or NaN scale factor %v", factor)
	}
	rate, err := injectionRate(m, gens, factor)
	if err != nil {
		return nil, err
	}
	s := &Stochastic{rate: rate}
	s.build(gens, factor)
	return s, nil
}

// injectionRate validates the generators and returns λ = ‖W·F‖∞ of
// their process scaled by factor, with F the expected per-slot request
// vector.
func injectionRate(m interference.Model, gens []Generator, factor float64) (float64, error) {
	for i, g := range gens {
		if err := g.Validate(); err != nil {
			return 0, fmt.Errorf("generator %d: %w", i, err)
		}
	}
	f := make([]float64, m.NumLinks())
	for i, g := range gens {
		sum := 0.0
		for _, c := range g.Choices {
			p := c.P * factor
			sum += p
			for _, e := range c.Path {
				if int(e) >= len(f) || e < 0 {
					return 0, fmt.Errorf("inject: path link %d out of range [0,%d)", e, len(f))
				}
				f[e] += p
			}
		}
		if !(sum <= 1+1e-12) {
			return 0, fmt.Errorf("inject: generator %d scales to total probability %v > 1", i, sum)
		}
	}
	return interference.MeasureVec(m, f), nil
}

// total returns a generator's injection probability per slot once
// scaled by factor, clamping the rounding slack Validate admits above 1.
func total(g Generator, factor float64) float64 {
	q := 0.0
	for _, c := range g.Choices {
		q += c.P * factor
	}
	return min(q, 1)
}

// classIndex maps a total in (0, 1] to its class, highest totals first.
func classIndex(q float64) int {
	_, exp := math.Frexp(q)
	return min(1-exp, numClasses-1)
}

// build lays the validated generators, scaled by factor, out in the
// class-ordered table. Generators that never inject are left out;
// within a class the generators keep their given order.
func (s *Stochastic) build(gens []Generator, factor float64) {
	type tally struct {
		gens, choices int
		qmax          float64
	}
	var tallies [numClasses]tally
	for _, g := range gens {
		for _, c := range g.Choices {
			s.packetRate += c.P * factor
		}
		if q := total(g, factor); q > 0 {
			t := &tallies[classIndex(q)]
			t.gens++
			t.choices += len(g.Choices)
			t.qmax = max(t.qmax, q)
		}
	}
	// Turn the tallies into each class's next free generator and choice
	// slot.
	nGens, nChoices := 0, 0
	for k := range tallies {
		t := &tallies[k]
		if t.gens == 0 {
			continue
		}
		s.classes = append(s.classes, class{lo: nGens, hi: nGens + t.gens, qmax: t.qmax, gapScale: -1 / math.Log1p(-t.qmax)})
		t.gens, nGens = nGens, nGens+t.gens
		t.choices, nChoices = nChoices, nChoices+t.choices
	}
	s.choices = make([]PathChoice, nChoices)
	s.start = make([]int32, nGens+1)
	s.start[nGens] = int32(nChoices)
	for _, g := range gens {
		if q := total(g, factor); q > 0 {
			t := &tallies[classIndex(q)]
			s.start[t.gens] = int32(t.choices)
			for _, c := range g.Choices {
				s.choices[t.choices] = PathChoice{Path: c.Path, P: c.P * factor}
				t.choices++
			}
			t.gens++
		}
	}
}

// Name implements Process.
func (s *Stochastic) Name() string { return "stochastic" }

// Rate implements Process.
func (s *Stochastic) Rate() float64 { return s.rate }

// PacketRate returns the expected number of packets injected per slot —
// the physical-units counterpart of Rate, which is in interference-
// measure units. The ratio PacketRate/Rate is the average number of
// packets one unit of measure budget buys under the model's W.
func (s *Stochastic) PacketRate() float64 { return s.packetRate }

// Step implements Process. The result is written into a buffer reused
// across slots (see the Process contract).
func (s *Stochastic) Step(t int64, rng *rand.Rand) []Packet {
	out := s.buf[:0]
	for _, c := range s.classes {
		for i := c.lo; i < c.hi; i++ {
			if c.qmax < 1 {
				gap := rng.ExpFloat64() * c.gapScale
				if gap >= float64(c.hi-i) {
					break
				}
				i += int(gap)
			}
			choices := s.choices[s.start[i]:s.start[i+1]]
			if len(choices) == 1 && choices[0].P == c.qmax {
				s.nextID++
				out = append(out, Packet{ID: s.nextID, Path: choices[0].Path, Injected: t})
				continue
			}
			u := rng.Float64() * c.qmax
			for _, ch := range choices {
				if u < ch.P {
					s.nextID++
					out = append(out, Packet{ID: s.nextID, Path: ch.Path, Injected: t})
					break
				}
				u -= ch.P
			}
		}
	}
	s.buf = out
	return out
}

// ScaleGenerators multiplies every choice probability by factor,
// returning new generators whose choices share one backing array. It
// returns an error if factor is negative or NaN, or if any scaled
// generator's probabilities would exceed 1.
func ScaleGenerators(gens []Generator, factor float64) ([]Generator, error) {
	if !(factor >= 0) {
		return nil, fmt.Errorf("inject: negative or NaN scale factor %v", factor)
	}
	n := 0
	for _, g := range gens {
		n += len(g.Choices)
	}
	choices := make([]PathChoice, 0, n)
	out := make([]Generator, len(gens))
	for i, g := range gens {
		lo := len(choices)
		sum := 0.0
		for _, c := range g.Choices {
			choices = append(choices, PathChoice{Path: c.Path, P: c.P * factor})
			sum += c.P * factor
		}
		if !(sum <= 1+1e-12) {
			return nil, fmt.Errorf("inject: generator %d scales to total probability %v > 1", i, sum)
		}
		out[i].Choices = choices[lo:len(choices):len(choices)]
	}
	return out, nil
}

// StochasticAtRate scales the generators so the process's injection
// rate is exactly lambda, and returns the resulting process: the same
// process as NewStochastic over ScaleGenerators(gens, lambda/base),
// without building either the unscaled process or the scaled
// generators. It fails if the unscaled rate is zero or if scaling would
// push a generator's total probability above 1 (add more generators in
// that case).
func StochasticAtRate(m interference.Model, gens []Generator, lambda float64) (*Stochastic, error) {
	base, err := injectionRate(m, gens, 1)
	if err != nil {
		return nil, err
	}
	if base <= 0 {
		return nil, fmt.Errorf("inject: base generators have zero injection rate")
	}
	return newScaled(m, gens, lambda/base)
}
