// Package core implements the paper's primary contribution: the
// black-box transformation of a static scheduling algorithm into a
// stable dynamic packet-scheduling protocol (Sections 4 and 5).
//
// Time is divided into frames of T slots. Each frame runs the static
// algorithm twice:
//
//   - Main phase (T' = f(m)·J + g(m, m·J) slots, J = (1+ε)λT): the
//     algorithm is executed on the next hop of every live packet, with
//     the intent that each packet advances one hop per frame.
//   - Clean-up phase (the remaining slots): packets that failed — the
//     frame was overloaded or the algorithm's internal randomness lost
//     them — sit in per-edge failure buffers. Each edge with a non-empty
//     buffer independently offers its longest-failed packet with
//     probability 1/m, and the algorithm runs on the offered singletons.
//
// A packet that fails once is served exclusively by clean-up phases from
// then on (its remaining hops all go through the buffers), exactly as in
// the paper's potential-function analysis. For adversarial injection
// (Section 5) every packet additionally waits a uniformly random number
// of frames below δmax = ⌈2(D+w)/ε⌉ before entering the system.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/randx"
	"dynsched/internal/sim"
	"dynsched/internal/static"
)

// Config parameterises the dynamic protocol.
type Config struct {
	// Model is the interference model the protocol schedules against.
	Model interference.Model
	// Alg is the static algorithm being transformed.
	Alg static.Algorithm
	// M is the significant network size m = max(|E|, D).
	M int
	// Lambda is the injection rate the protocol is provisioned for.
	Lambda float64
	// Eps is the paper's ε: the protocol targets λ = (1−ε)/f(m), and
	// frame capacity J = (1+ε)·λ·T. Values outside (0, 1/2] default to 1/2.
	Eps float64
	// T overrides the frame length; 0 solves for the smallest
	// self-consistent frame (see SolveFrameLength).
	T int
	// CleanupProb overrides the per-edge clean-up selection probability;
	// 0 means the paper's 1/m.
	CleanupProb float64

	// Window, when positive, enables the adversarial-injection wrapper
	// of Section 5 with window length w.
	Window int
	// D is the path-length bound (needed to size δmax when Window > 0;
	// 0 falls back to M).
	D int
	// DelayMax overrides δmax in frames; 0 means ⌈2(D+w)/ε⌉ scaled by
	// DelayScale.
	DelayMax int
	// DelayScale shrinks the paper's δmax for simulation-scale runs
	// (0 = 1, i.e. the paper's value).
	DelayScale float64

	// DisableCleanup turns off the clean-up phase (failure ablation).
	DisableCleanup bool
	// DisableDelays turns off the adversarial random initial delays
	// while keeping Window semantics (ablation).
	DisableDelays bool

	// Seed seeds the protocol's private randomness (initial delays).
	Seed int64
}

func (c Config) eps() float64 {
	if c.Eps <= 0 || c.Eps > 0.5 {
		return 0.5
	}
	return c.Eps
}

// Sizing describes the frame layout the protocol derived from its
// configuration.
type Sizing struct {
	T             int // frame length
	J             int // per-frame capacity (1+ε)λT
	MainBudget    int // T': slots of the main phase
	CleanupBudget int // slots of the clean-up phase execution
	DelayMax      int // adversarial initial-delay bound, in frames
}

// SolveFrameLength finds the smallest frame length T such that the main
// phase A(J, m·J) with J = (1+ε)λT and the clean-up phase A(1, m·J) both
// fit: T ≥ Budget(J, mJ) + Budget(1, mJ). The fixed point exists exactly
// when the algorithm's per-measure cost satisfies f(m)·(1+ε)·λ < 1 —
// the paper's stability condition λ < 1/f(m) with its ε-headroom.
func SolveFrameLength(alg static.Algorithm, numLinks, m int, lambda, eps float64) (int, error) {
	if lambda <= 0 {
		return 0, fmt.Errorf("core: non-positive injection rate %v", lambda)
	}
	t := 16
	for iter := 0; iter < 200; iter++ {
		j := frameJ(lambda, eps, t)
		need := alg.Budget(numLinks, float64(j), m*j) + alg.Budget(numLinks, 1, m*j)
		if need <= t {
			return t, nil
		}
		if need > 1<<26 {
			return 0, fmt.Errorf("core: frame length diverges (λ=%v exceeds the algorithm's stable throughput 1/f(m))", lambda)
		}
		t = need
	}
	return 0, fmt.Errorf("core: frame length failed to converge for λ=%v", lambda)
}

// ConcentrationFrameLength returns the frame length needed for the
// per-frame capacity J = (1+ε)λT to sit `sigmas` standard deviations
// above the mean arrival measure λT (Poisson-scale concentration):
// ε·λT ≥ sigmas·√(λT) ⟺ T ≥ sigmas²/(ε²·λ). This is the practical
// counterpart of the paper's T ≥ 100·f(m)/ε³ condition — without it,
// frames overflow constantly and failed packets swamp the clean-up
// phase. Combine with SolveFrameLength via max.
func ConcentrationFrameLength(lambda, eps, sigmas float64) int {
	if lambda <= 0 || eps <= 0 {
		return 1
	}
	return int(math.Ceil(sigmas * sigmas / (eps * eps * lambda)))
}

func frameJ(lambda, eps float64, t int) int {
	j := int(math.Ceil((1 + eps) * lambda * float64(t)))
	if j < 1 {
		j = 1
	}
	return j
}

// pkt is the protocol's view of one packet.
type pkt struct {
	id            int64
	path          netgraph.Path // the injected route, shared read-only
	hop           int
	failed        bool
	delivered     bool
	failSlot      int64
	activateFrame int64
}

// Protocol is the dynamic scheduling protocol. It implements
// sim.Protocol.
type Protocol struct {
	cfg    Config
	sizing Sizing
	name   string

	// mainAlg and cleanupAlg are the phase-specific algorithm variants
	// (measure-bounded when the algorithm supports it).
	mainAlg    static.Algorithm
	cleanupAlg static.Algorithm

	// live holds every undelivered packet in injection order (packet IDs
	// are fresh per the Process contract, so injection order is ID order
	// for the built-in processes). Delivered packets are compacted out —
	// and their structs recycled — at the next main-phase start.
	live     []*pkt
	queueLen int
	// failBuf[e] holds failed packets whose next hop is link e, ordered
	// by failure time (oldest first).
	failBuf [][]*pkt

	// rngSrc counts the private RNG's draws so the protocol can be
	// checkpointed (see checkpoint.go); rng draws through it.
	rngSrc *randx.CountingSource
	rng    *rand.Rand // protocol-private randomness (initial delays)

	frame     int64
	exec      static.Execution // current phase execution (nil when idle)
	execPkts  []*pkt           // request index → packet
	execHops  []int            // request index → hop at phase start
	inCleanup bool
	// mainExecCache and cleanupExecCache hold the previous phase
	// executions for algorithms that support recycling (static.Recycler).
	mainExecCache    static.Execution
	cleanupExecCache static.Execution
	// emitIDs and emitIdx record the packet ID and execution request
	// index of each transmission the last Slot call emitted, in order;
	// Feedback maps the simulator's (possibly filtered) outcome slice
	// back to request indices by walking this record.
	emitIDs []int64
	emitIdx []int

	// Counters for experiments and tests.
	Failures         int64 // fail events (first failures only)
	CleanupDelivered int64 // hops completed in clean-up phases
	FramesRun        int64

	// curFrame holds the running frame's statistics.
	curFrame FrameStat

	// Per-slot scratch, reused across calls (the simulator does not
	// retain the slices Slot and Feedback hand around).
	txScratch  []sim.Transmission
	idxScratch []int
	okScratch  []bool
	// memberScratch backs the per-frame main-phase member list; it is
	// only ever read through execPkts, which buildExec repoints every
	// phase before the scratch is reused.
	memberScratch []*pkt
	// reqScratch and hopScratch back the per-phase execution inputs,
	// repointed by every buildExec before reuse; selScratch backs the
	// clean-up selection.
	reqScratch []static.Request
	hopScratch []int
	selScratch []*pkt

	// pktFree recycles pkt structs: the steady-state packet lifecycle
	// allocates nothing. Delivered packets stay on live (flagged) until
	// the next main-phase start — stale execPkts entries may still point
	// at them until buildExec repoints the execution — and only then
	// join the free list for reuse by Inject.
	pktFree []*pkt
}

// FrameStat summarises one frame of protocol activity.
type FrameStat struct {
	Frame      int64 // frame index
	Active     int   // packets scheduled in the main phase
	MainServed int   // hops completed in the main phase
	Failed     int   // packets newly marked failed this frame
	Cleanup    int   // hops completed in the clean-up phase
	Potential  int   // Φ at frame end
}

// recordFrame closes the finished frame's statistics.
func (p *Protocol) recordFrame() {
	p.curFrame.Potential = p.Potential()
}

var _ sim.Protocol = (*Protocol)(nil)

// New builds the protocol, solving for the frame length when cfg.T is 0.
func New(cfg Config) (*Protocol, error) {
	if cfg.Model == nil || cfg.Alg == nil {
		return nil, fmt.Errorf("core: config needs Model and Alg")
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("core: network size M=%d must be positive", cfg.M)
	}
	eps := cfg.eps()
	t := cfg.T
	if t == 0 {
		var err error
		t, err = SolveFrameLength(cfg.Alg, cfg.Model.NumLinks(), cfg.M, cfg.Lambda, eps)
		if err != nil {
			return nil, err
		}
	}
	j := frameJ(cfg.Lambda, eps, t)
	mainBudget := cfg.Alg.Budget(cfg.Model.NumLinks(), float64(j), cfg.M*j)
	cleanupBudget := cfg.Alg.Budget(cfg.Model.NumLinks(), 1, cfg.M*j)
	if mainBudget+cleanupBudget > t {
		return nil, fmt.Errorf("core: frame length %d too small for phases %d+%d", t, mainBudget, cleanupBudget)
	}
	// Distributed fidelity: when the algorithm supports it, run the main
	// phase against the known bound J and the clean-up phase against 1,
	// exactly as the paper's A(J, m·J) and A(1, m·J) executions — no
	// global inspection of the live request set.
	mainAlg, cleanupAlg := cfg.Alg, cfg.Alg
	if mb, ok := cfg.Alg.(static.MeasureBounded); ok {
		mainAlg = mb.WithMeasureBound(float64(j))
		cleanupAlg = mb.WithMeasureBound(1)
	}
	s := Sizing{T: t, J: j, MainBudget: mainBudget, CleanupBudget: cleanupBudget}
	if cfg.Window > 0 && !cfg.DisableDelays {
		s.DelayMax = cfg.DelayMax
		if s.DelayMax == 0 {
			d := cfg.D
			if d == 0 {
				d = cfg.M
			}
			scale := cfg.DelayScale
			if scale <= 0 {
				scale = 1
			}
			s.DelayMax = int(math.Ceil(2 * float64(d+cfg.Window) / eps * scale))
		}
		if s.DelayMax < 1 {
			s.DelayMax = 1
		}
	}
	rngSrc := randx.NewCounting(cfg.Seed ^ 0x6b43a9b5)
	return &Protocol{
		cfg:        cfg,
		sizing:     s,
		name:       fmt.Sprintf("dynamic(%s)", cfg.Alg.Name()),
		mainAlg:    mainAlg,
		cleanupAlg: cleanupAlg,
		failBuf:    make([][]*pkt, cfg.Model.NumLinks()),
		rngSrc:     rngSrc,
		rng:        rand.New(rngSrc),
	}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return p.name }

// Sizing returns the derived frame layout.
func (p *Protocol) Sizing() Sizing { return p.sizing }

// QueueLen returns the number of undelivered packets the protocol holds.
func (p *Protocol) QueueLen() int { return p.queueLen }

// FailedQueueLen returns the total size of the failure buffers.
func (p *Protocol) FailedQueueLen() int {
	n := 0
	for _, buf := range p.failBuf {
		n += len(buf)
	}
	return n
}

// Potential returns the paper's Lyapunov potential Φ: the summed number
// of remaining hops over all failed packets (Section 4.1). The
// stability proof shows Pr[Φ ≥ k] ≤ (1 − 1/m²J)^k at all times; the
// experiments sample this to check the geometric decay empirically.
func (p *Protocol) Potential() int {
	phi := 0
	for _, buf := range p.failBuf {
		for _, st := range buf {
			phi += len(st.path) - st.hop
		}
	}
	return phi
}

// Inject implements sim.Protocol. Under the adversarial wrapper each
// packet draws its uniform initial delay here, at injection time.
// Each packet keeps the process's path (shared, never mutated) and pkt
// structs come from the free list, so steady-state injection performs
// no allocations.
func (p *Protocol) Inject(t int64, pkts []inject.Packet) {
	frame := t / int64(p.sizing.T)
	for _, ip := range pkts {
		st := p.allocPkt()
		st.id, st.path = ip.ID, ip.Path
		st.activateFrame = frame + 1
		if p.sizing.DelayMax > 1 {
			st.activateFrame += int64(p.rng.Intn(p.sizing.DelayMax))
		}
		p.live = append(p.live, st)
		p.queueLen++
	}
}

// pktChunk is how many pkt structs an empty free list allocates at
// once: growth costs one allocation per chunk instead of one per
// packet, which matters when many short protocol instances start cold
// (plan sweeps run dozens per document).
const pktChunk = 64

// allocPkt returns a zeroed pkt, recycled from the free list when one
// is available; an empty list is refilled a chunk at a time.
func (p *Protocol) allocPkt() *pkt {
	if len(p.pktFree) == 0 {
		chunk := make([]pkt, pktChunk)
		for i := range chunk {
			p.pktFree = append(p.pktFree, &chunk[i])
		}
	}
	n := len(p.pktFree)
	st := p.pktFree[n-1]
	p.pktFree = p.pktFree[:n-1]
	*st = pkt{}
	return st
}

// Slot implements sim.Protocol.
func (p *Protocol) Slot(t int64, rng *rand.Rand) []sim.Transmission {
	frame := t / int64(p.sizing.T)
	offset := int(t % int64(p.sizing.T))
	if offset == 0 {
		if p.FramesRun > 0 {
			p.recordFrame()
		}
		p.frame = frame
		p.FramesRun++
		p.curFrame = FrameStat{Frame: frame}
		p.startMainPhase(rng)
		p.curFrame.Active = len(p.execPkts)
	}
	switch {
	case offset < p.sizing.MainBudget:
		// Main phase.
	case offset == p.sizing.MainBudget:
		p.endMainPhase(t)
		p.startCleanupPhase(rng)
	case offset >= p.sizing.MainBudget+p.sizing.CleanupBudget:
		p.exec = nil // frame tail: idle
	}
	if p.exec == nil || p.exec.Done() {
		p.emitIDs, p.emitIdx = p.emitIDs[:0], p.emitIdx[:0]
		return nil
	}
	attempts := p.exec.Attempts(rng)
	out := p.txScratch[:0]
	ids := p.emitIDs[:0]
	idxs := p.emitIdx[:0]
	for _, idx := range attempts {
		st := p.execPkts[idx]
		out = append(out, sim.Transmission{Link: int(st.path[st.hop]), PacketID: st.id})
		ids = append(ids, st.id)
		idxs = append(idxs, idx)
	}
	p.txScratch, p.emitIDs, p.emitIdx = out, ids, idxs
	return out
}

// startMainPhase builds the main-phase execution over all live,
// activated, unfailed packets, ordered by packet ID so runs are
// deterministic under a fixed seed. The live list is compacted in the
// same pass: delivered packets drop out and their structs return to the
// free list (no execution references them once buildExec repoints
// below). Injection order already is ID order for processes that assign
// fresh increasing IDs, so the sort usually reduces to a verification
// scan.
func (p *Protocol) startMainPhase(rng *rand.Rand) {
	p.inCleanup = false
	members := p.memberScratch[:0]
	w := 0
	for _, st := range p.live {
		if st.delivered {
			p.pktFree = append(p.pktFree, st)
			continue
		}
		p.live[w] = st
		w++
		if !st.failed && st.activateFrame <= p.frame {
			members = append(members, st)
		}
	}
	clear(p.live[w:])
	p.live = p.live[:w]
	p.memberScratch = members
	if !slices.IsSortedFunc(members, pktByID) {
		slices.SortFunc(members, pktByID)
	}
	p.buildExec(members)
}

// pktByID orders packets by ID; IDs are unique, so it never returns 0.
func pktByID(a, b *pkt) int {
	if a.id < b.id {
		return -1
	}
	return 1
}

// endMainPhase marks every unserved main-phase packet as failed and
// moves it into the failure buffer of its pending link.
func (p *Protocol) endMainPhase(t int64) {
	if p.inCleanup || p.exec == nil {
		return
	}
	for i, st := range p.execPkts {
		if st == nil || st.failed {
			continue
		}
		if st.delivered {
			continue // delivered during the phase
		}
		if p.execServed(i) {
			continue
		}
		st.failed = true
		st.failSlot = t
		p.Failures++
		p.curFrame.Failed++
		p.pushFailed(st)
	}
	p.exec = nil
}

// execServed reports whether request idx succeeded: the packet's hop
// advanced past the hop it was enqueued with.
func (p *Protocol) execServed(idx int) bool {
	return p.execHops[idx] < p.execPkts[idx].hop
}

// startCleanupPhase performs the random per-edge selection and builds
// the clean-up execution.
func (p *Protocol) startCleanupPhase(rng *rand.Rand) {
	p.inCleanup = true
	p.exec = nil
	if p.cfg.DisableCleanup {
		return
	}
	prob := p.cfg.CleanupProb
	if prob <= 0 {
		prob = 1 / float64(p.cfg.M)
	}
	selected := p.selScratch[:0]
	for e := range p.failBuf {
		if len(p.failBuf[e]) == 0 {
			continue
		}
		if rng.Float64() < prob {
			selected = append(selected, p.failBuf[e][0]) // longest-failed first
		}
	}
	p.selScratch = selected
	if len(selected) > 0 {
		p.buildExec(selected)
	}
}

func (p *Protocol) buildExec(members []*pkt) {
	if len(members) == 0 {
		p.exec = nil
		p.execPkts = nil
		p.execHops = nil
		return
	}
	// The request and hop buffers are reused across phases: by the time
	// buildExec runs, the previous phase's execution has been discarded.
	reqs := p.reqScratch[:0]
	hops := p.hopScratch[:0]
	for _, st := range members {
		reqs = append(reqs, static.Request{Link: int(st.path[st.hop]), Tag: st.id})
		hops = append(hops, st.hop)
	}
	p.reqScratch, p.hopScratch = reqs, hops
	p.execPkts = members
	p.execHops = hops
	alg, cache := p.mainAlg, &p.mainExecCache
	if p.inCleanup {
		alg, cache = p.cleanupAlg, &p.cleanupExecCache
	}
	// Algorithms that support it rebuild into the previous same-phase
	// execution's buffers (dead since the last buildExec of this phase
	// kind); the recycled execution behaves identically to a fresh one.
	if r, ok := alg.(static.Recycler); ok {
		p.exec = r.RecycleExecution(*cache, p.cfg.Model, reqs)
		*cache = p.exec
	} else {
		p.exec = alg.NewExecution(p.cfg.Model, reqs)
	}
}

// pushFailed inserts st into the failure buffer of its pending link,
// keeping the buffer ordered by failure time (oldest first).
func (p *Protocol) pushFailed(st *pkt) {
	e := st.path[st.hop]
	buf := p.failBuf[e]
	at := sort.Search(len(buf), func(i int) bool {
		if buf[i].failSlot != st.failSlot {
			return buf[i].failSlot > st.failSlot
		}
		return buf[i].id > st.id
	})
	buf = append(buf, nil)
	copy(buf[at+1:], buf[at:])
	buf[at] = st
	p.failBuf[e] = buf
}

// removeFailed removes st from the failure buffer of link e.
func (p *Protocol) removeFailed(e int, st *pkt) {
	buf := p.failBuf[e]
	for i, cur := range buf {
		if cur == st {
			p.failBuf[e] = append(buf[:i], buf[i+1:]...)
			return
		}
	}
}

// Feedback implements sim.Protocol. The simulator's tx slice is an
// order-preserving subset of what Slot emitted (invalid requests are
// dropped, never reordered), so the emission record maps each outcome
// back to its execution request index with one forward walk — no
// per-packet map.
func (p *Protocol) Feedback(t int64, tx []sim.Transmission, success []bool) {
	if p.exec == nil {
		return
	}
	idxs := p.idxScratch[:0]
	oks := p.okScratch[:0]
	j := 0
	for i, w := range tx {
		for j < len(p.emitIDs) && p.emitIDs[j] != w.PacketID {
			j++
		}
		if j == len(p.emitIDs) {
			break // not something this execution emitted
		}
		idx := p.emitIdx[j]
		j++
		idxs = append(idxs, idx)
		oks = append(oks, success[i])
		if !success[i] {
			continue
		}
		st := p.execPkts[idx]
		prevLink := int(st.path[st.hop])
		st.hop++
		if st.failed {
			p.CleanupDelivered++
			p.curFrame.Cleanup++
			p.removeFailed(prevLink, st)
			if st.hop < len(st.path) {
				p.pushFailed(st) // remaining hops stay in clean-up service
			}
		} else {
			p.curFrame.MainServed++
		}
		if st.hop == len(st.path) {
			// The execution may still reference st until the next phase
			// boundary; it stays on live (flagged) for recycling there.
			st.delivered = true
			p.queueLen--
		}
	}
	p.idxScratch, p.okScratch = idxs, oks
	p.exec.Observe(idxs, oks)
}
