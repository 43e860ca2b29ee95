// Package mac implements the multiple-access-channel instantiation of
// Section 7.1 (interference.AllOnes): all W entries are 1, the
// interference measure is the total packet count, and only a lone
// transmission succeeds. It provides the paper's Algorithm 2 (a
// symmetric, acknowledgement-based decay scheme, Lemma 15) and
// Round-Robin-Withholding (the asymmetric deterministic scheme of
// Lemma 17), which the dynamic transformation turns into stable
// protocols for λ < 1/e and λ < 1 respectively (Corollaries 16 and 18).
package mac

import (
	"math"
	"math/rand"

	"dynsched/internal/interference"
	"dynsched/internal/static"
)

// E is Euler's number, the threshold constant of Corollary 16.
const E = math.E

// Decay is Algorithm 2: a symmetric algorithm for the multiple-access
// channel that transmits n packets in (1+δ)e·n + O(φ²·log²n) slots with
// probability at least 1 − 1/n^φ (Lemma 15).
//
// Stage one runs ξ rounds; in round i each surviving packet picks a slot
// uniformly below (1 − 1/(e(1+δ)))^i·n and transmits exactly then, so a
// 1/(e(1+δ)) fraction succeeds per round in expectation. Once the
// survivor count is O(log n), stage two has each packet transmit
// independently with probability 1/s per slot for s·e·(φ+1)·ln n slots.
type Decay struct {
	// Delta is the paper's δ > 0 (throughput slack). ≤ 0 defaults to 0.5.
	Delta float64
	// Phi is the paper's φ ≥ 1 (failure exponent). < 1 defaults to 1.
	Phi float64
}

var _ static.Algorithm = Decay{}

// Name implements static.Algorithm.
func (Decay) Name() string { return "mac-decay" }

func (d Decay) delta() float64 {
	if d.Delta <= 0 {
		return 0.5
	}
	return d.Delta
}

func (d Decay) phi() float64 {
	if d.Phi < 1 {
		return 1
	}
	return d.Phi
}

// params computes the stage structure for n packets. The paper sets the
// stage-two survivor target s = 2φ·ln n·2e²(1+δ)²/δ² — a proof-driven
// constant in the thousands even for n = 100. We keep its Θ(log n)
// shape but shrink the constant so that simulations exercise both
// stages; the Lemma 15 contract (1+δ)e·n + O(φ²·log²n) is preserved.
func (d Decay) params(n int) (xi int, roundLen []int, s float64, stage2 int) {
	if n == 0 {
		return 0, nil, 1, 0
	}
	delta, phi := d.delta(), d.phi()
	q := 1 / (E * (1 + delta)) // per-round success fraction
	lnn := math.Log(float64(n) + 1)
	s = 4 * phi * lnn
	if s < 8 {
		s = 8
	}
	// Round i has length (1−q)^i·n, matching the expected survivor
	// count entering it; stop once the target drops to s.
	cur := float64(n) * (1 - q)
	for cur > s {
		roundLen = append(roundLen, int(math.Floor(cur)))
		cur *= 1 - q
		xi++
		if xi > 10_000 { // safety net; unreachable for sane δ
			break
		}
	}
	stage2 = int(math.Ceil(s * E * (phi + 1) * lnn))
	if stage2 < 8 {
		stage2 = 8
	}
	return xi, roundLen, s, stage2
}

// Budget implements static.Algorithm per Lemma 15:
// (1+δ)e·n + O(φ²·log²n). Under the multiple-access channel's all-ones
// matrix the interference measure *is* the packet count, so the budget
// is computed for min(n, ⌈meas⌉) packets — this is what lets the
// dynamic transformation's frames stay proportional to J rather than
// to the worst-case packet bound m·J.
func (d Decay) Budget(numLinks int, meas float64, n int) int {
	n = effectivePackets(meas, n)
	if n == 0 {
		return 1
	}
	_, roundLen, _, stage2 := d.params(n)
	total := stage2
	for _, l := range roundLen {
		total += l
	}
	// Stage two may need to repeat when stage one underperforms; double
	// the tail for headroom.
	return total + stage2 + 8
}

// effectivePackets bounds the packet count by the all-ones measure.
func effectivePackets(meas float64, n int) int {
	if m := int(math.Ceil(meas)); m < n {
		return m
	}
	return n
}

// NewExecution implements static.Algorithm.
func (d Decay) NewExecution(m interference.Model, reqs []static.Request) static.Execution {
	_, roundLen, s, stage2 := d.params(len(reqs))
	return &decayExec{
		served:    make([]bool, len(reqs)),
		remaining: len(reqs),
		roundLen:  roundLen,
		s:         s,
		stage2:    stage2,
	}
}

type decayExec struct {
	served    []bool
	remaining int

	roundLen []int
	round    int
	slot     int   // offset within current round
	picks    []int // request → chosen slot in current round (-1 served)
	assigned bool

	s      float64
	stage2 int
}

func (e *decayExec) Done() bool     { return e.remaining == 0 }
func (e *decayExec) Remaining() int { return e.remaining }

func (e *decayExec) Attempts(rng *rand.Rand) []int {
	if e.remaining == 0 {
		return nil
	}
	for e.round < len(e.roundLen) {
		if !e.assigned {
			l := e.roundLen[e.round]
			e.picks = make([]int, len(e.served))
			for i := range e.picks {
				if e.served[i] {
					e.picks[i] = -1
				} else {
					e.picks[i] = rng.Intn(l)
				}
			}
			e.slot = 0
			e.assigned = true
		}
		if e.slot < e.roundLen[e.round] {
			var out []int
			for i, p := range e.picks {
				if p == e.slot {
					out = append(out, i)
				}
			}
			e.slot++
			return out
		}
		e.round++
		e.assigned = false
	}
	// Stage two: independent transmission with probability 1/s.
	var out []int
	p := 1 / e.s
	for i, served := range e.served {
		if !served && rng.Float64() < p {
			out = append(out, i)
		}
	}
	return out
}

func (e *decayExec) Observe(attempted []int, success []bool) {
	for i, idx := range attempted {
		if success[i] && !e.served[idx] {
			e.served[idx] = true
			e.remaining--
			if e.picks != nil {
				e.picks[idx] = -1
			}
		}
	}
}

// RoundRobinWithholding is the asymmetric deterministic algorithm of
// Lemma 17 (used before by Chlebus et al. [13]): stations transmit in ID
// order, each draining its packets; one silent slot hands the channel to
// the next station. It transmits n packets in n + m slots and is stable
// for every λ < 1 after the dynamic transformation (Corollary 18).
//
// The implementation replays the deterministic schedule directly; the
// silence-detection handshake it abstracts requires stations to hear the
// channel, which the multiple-access channel provides by assumption.
type RoundRobinWithholding struct{}

var _ static.Algorithm = RoundRobinWithholding{}

// Name implements static.Algorithm.
func (RoundRobinWithholding) Name() string { return "round-robin-withholding" }

// Budget implements static.Algorithm: n packets plus one silent slot per
// station (Lemma 17's n + m), with the packet count bounded by the
// all-ones measure as in Decay.Budget.
func (RoundRobinWithholding) Budget(numLinks int, meas float64, n int) int {
	return effectivePackets(meas, n) + numLinks + 4
}

// NewExecution implements static.Algorithm.
func (RoundRobinWithholding) NewExecution(m interference.Model, reqs []static.Request) static.Execution {
	// Group request indices by station (link), in station order.
	byStation := make([][]int, m.NumLinks())
	for i, q := range reqs {
		byStation[q.Link] = append(byStation[q.Link], i)
	}
	return &rrwExec{byStation: byStation, remaining: len(reqs)}
}

type rrwExec struct {
	byStation [][]int
	station   int
	silent    bool // next slot is the hand-over silence
	remaining int
}

func (e *rrwExec) Done() bool     { return e.remaining == 0 }
func (e *rrwExec) Remaining() int { return e.remaining }

func (e *rrwExec) Attempts(rng *rand.Rand) []int {
	if e.remaining == 0 {
		return nil
	}
	for e.station < len(e.byStation) {
		if e.silent {
			// Hand-over slot: nobody transmits.
			e.silent = false
			e.station++
			return nil
		}
		q := e.byStation[e.station]
		if len(q) == 0 {
			e.silent = false
			e.station++
			continue
		}
		return []int{q[0]}
	}
	// All stations drained but failures remain (possible only under a
	// lossy channel): cycle again.
	e.station = 0
	return nil
}

func (e *rrwExec) Observe(attempted []int, success []bool) {
	for i, idx := range attempted {
		if !success[i] {
			continue
		}
		q := e.byStation[e.station]
		if len(q) > 0 && q[0] == idx {
			e.byStation[e.station] = q[1:]
			e.remaining--
			if len(e.byStation[e.station]) == 0 {
				e.silent = true // advertise hand-over next slot
			}
		}
	}
}
