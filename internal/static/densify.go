package static

import (
	"fmt"
	"math"
	"math/rand"

	"dynsched/internal/interference"
)

// Densify is Algorithm 1 of the paper: a transformation that turns a
// static algorithm with schedule length f(n)·I (success probability
// 1 − 1/n) into one whose length is linear in I for dense instances,
// 2·f(mχ)·I + O(f(mχ)·log n + f(n)·log n·log m), with χ = 6(ln m + 9).
//
// Each of ξ = ⌈log(I / 2φχ·log n)⌉ iterations assigns every remaining
// packet a uniformly random delay below ⌈2^{1−i}·I/χ⌉ and runs the inner
// algorithm on each delay class for f(mχ)·χ slots; the residual
// interference measure halves per iteration with high probability.
// Finally the inner algorithm runs ⌈φ⌉+1 more times on whatever remains.
type Densify struct {
	// Inner is the algorithm being transformed.
	Inner Algorithm
	// Phi is the paper's failure-probability exponent φ (error ≤ 1/n^φ).
	// Values ≤ 0 default to 1.
	Phi float64
	// Chi overrides the per-class interference budget χ. 0 means the
	// paper's 6(ln m + 9); experiments use smaller values to keep
	// schedules short at simulation scale.
	Chi float64
}

var _ Algorithm = Densify{}

// Name implements Algorithm.
func (d Densify) Name() string { return fmt.Sprintf("densify(%s)", d.Inner.Name()) }

func (d Densify) phi() float64 {
	if d.Phi <= 0 {
		return 1
	}
	return d.Phi
}

// chi returns the configured χ, or the paper's χ = 6(ln m + 9) for a
// network of m links.
func (d Densify) chi(numLinks int) float64 {
	if d.Chi > 0 {
		return d.Chi
	}
	return 6 * (math.Log(float64(numLinks)) + 9)
}

// lg is a floored-at-one base-2 logarithm, the paper's "log".
func lg(x float64) float64 {
	if x <= 2 {
		return 1
	}
	return math.Log2(x)
}

// plan holds the precomputed iteration structure shared by Budget and
// the execution.
type densifyPlan struct {
	chi          float64
	xi           int     // number of halving iterations
	psis         []int   // delay-range (bucket count) per iteration
	bucketBudget int     // slots per delay class: f(mχ)·χ
	finalReps    int     // ⌈φ⌉+1
	finalMeas    float64 // 2φχ·log n
	finalBudget  int
}

func (d Densify) makePlan(numLinks int, meas float64, n int) densifyPlan {
	phi := d.phi()
	chi := d.chi(numLinks)
	p := densifyPlan{chi: chi}
	logn := lg(float64(n))
	threshold := 2 * phi * chi * logn
	if meas > threshold {
		p.xi = int(math.Ceil(math.Log2(meas / threshold)))
	}
	for i := 1; i <= p.xi; i++ {
		psi := int(math.Ceil(math.Pow(2, float64(-i+1)) * meas / chi))
		if psi < 1 {
			psi = 1
		}
		p.psis = append(p.psis, psi)
	}
	nChi := numLinks * int(math.Ceil(chi))
	if nChi < 1 {
		nChi = 1
	}
	p.bucketBudget = d.Inner.Budget(numLinks, chi, nChi)
	p.finalReps = int(math.Ceil(phi)) + 1
	p.finalMeas = threshold
	p.finalBudget = d.Inner.Budget(numLinks, p.finalMeas, n)
	return p
}

// Budget implements Algorithm by summing the plan's slot counts.
func (d Densify) Budget(numLinks int, meas float64, n int) int {
	if n == 0 {
		return 1
	}
	p := d.makePlan(numLinks, meas, n)
	total := 0
	for _, psi := range p.psis {
		total += psi * p.bucketBudget
	}
	total += p.finalReps * p.finalBudget
	return total + 1
}

// NewExecution implements Algorithm.
func (d Densify) NewExecution(m interference.Model, reqs []Request) Execution {
	meas := RequestMeasure(m, reqs)
	return &densifyExec{
		model:     m,
		reqs:      reqs,
		served:    make([]bool, len(reqs)),
		remaining: len(reqs),
		plan:      d.makePlan(m.NumLinks(), meas, len(reqs)),
		inner:     d.Inner,
	}
}

type densifyExec struct {
	model     interference.Model
	reqs      []Request
	served    []bool
	remaining int
	plan      densifyPlan
	inner     Algorithm

	iter      int     // current halving iteration, 0-based
	buckets   [][]int // outer request indices per delay class (current iteration)
	bucket    int     // current delay class
	finalRep  int     // current final-phase repetition, 0-based
	inFinal   bool
	exec      Execution
	execMap   []int       // inner index → outer index
	execInv   map[int]int // outer index → inner index
	slotsLeft int         // slots left for the current sub-execution
	started   bool
}

func (e *densifyExec) Done() bool     { return e.remaining == 0 }
func (e *densifyExec) Remaining() int { return e.remaining }

// collectRemaining returns the indices of unserved requests.
func (e *densifyExec) collectRemaining() []int {
	out := make([]int, 0, e.remaining)
	for i, s := range e.served {
		if !s {
			out = append(out, i)
		}
	}
	return out
}

// startSub creates the inner execution on the given outer indices.
func (e *densifyExec) startSub(indices []int, budget int) {
	e.execMap = indices
	e.execInv = make(map[int]int, len(indices))
	sub := make([]Request, len(indices))
	for j, outer := range indices {
		sub[j] = e.reqs[outer]
		e.execInv[outer] = j
	}
	e.exec = e.inner.NewExecution(e.model, sub)
	e.slotsLeft = budget
}

// advance moves the plan forward until a sub-execution with slots
// remains, or the plan is exhausted.
func (e *densifyExec) advance(rng *rand.Rand) {
	for {
		if e.exec != nil && e.slotsLeft > 0 && !e.exec.Done() {
			return
		}
		e.exec = nil
		if !e.inFinal {
			if e.iter < e.plan.xi && e.buckets != nil && e.bucket+1 < len(e.buckets) {
				// Next delay class in the current iteration.
				e.bucket++
				e.startSub(e.buckets[e.bucket], e.plan.bucketBudget)
				continue
			}
			if e.started && e.iter+1 < e.plan.xi {
				e.iter++
			} else if e.started {
				e.inFinal = true
				e.finalRep = 0
				e.startSub(e.collectRemaining(), e.plan.finalBudget)
				continue
			} else {
				e.started = true
				if e.plan.xi == 0 {
					e.inFinal = true
					e.finalRep = 0
					e.startSub(e.collectRemaining(), e.plan.finalBudget)
					continue
				}
			}
			// Begin iteration e.iter: assign fresh delays to survivors.
			psi := e.plan.psis[e.iter]
			e.buckets = make([][]int, psi)
			for _, idx := range e.collectRemaining() {
				j := rng.Intn(psi)
				e.buckets[j] = append(e.buckets[j], idx)
			}
			e.bucket = 0
			e.startSub(e.buckets[0], e.plan.bucketBudget)
			continue
		}
		// Final phase.
		if e.finalRep+1 < e.plan.finalReps {
			e.finalRep++
			e.startSub(e.collectRemaining(), e.plan.finalBudget)
			continue
		}
		// Plan exhausted: keep retrying on the remaining requests so the
		// caller's overall budget, not the plan, is the binding limit.
		e.startSub(e.collectRemaining(), e.plan.finalBudget)
		return
	}
}

func (e *densifyExec) Attempts(rng *rand.Rand) []int {
	if e.remaining == 0 {
		return nil
	}
	e.advance(rng)
	if e.exec == nil {
		return nil
	}
	e.slotsLeft--
	inner := e.exec.Attempts(rng)
	out := make([]int, len(inner))
	for i, j := range inner {
		out[i] = e.execMap[j]
	}
	return out
}

func (e *densifyExec) Observe(attempted []int, success []bool) {
	if e.exec == nil {
		return
	}
	innerIdx := make([]int, 0, len(attempted))
	innerOK := make([]bool, 0, len(attempted))
	for i, outer := range attempted {
		j, ok := e.execInv[outer]
		if !ok {
			continue
		}
		innerIdx = append(innerIdx, j)
		innerOK = append(innerOK, success[i])
		if success[i] && !e.served[outer] {
			e.served[outer] = true
			e.remaining--
		}
	}
	e.exec.Observe(innerIdx, innerOK)
}
