// Package sim is the discrete-time simulation engine: it advances a
// protocol slot by slot against an interference model and an injection
// process, resolves which transmissions succeed, moves packets along
// their paths, and notifies an observer pipeline that collects the
// queue-length and latency metrics the experiments report.
//
// The simulator, not the protocol, owns packet ground truth: a protocol
// may only request transmissions of packets it holds, on the next link
// of their paths. Violations are counted and the offending transmissions
// dropped, so a buggy protocol cannot corrupt an experiment silently.
package sim

import (
	"context"
	"fmt"
	"math/rand"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/randx"
	"dynsched/internal/stats"
)

// StreamVersion numbers the engine's random stream: which draws the
// engine, its injection processes and its protocols take from the
// seeded RNG, and in which order. A Result is a function of the run's
// spec and this version, so stores that key results by spec hash
// (dynschedd's result cache) fold it into their keys. Bump it with
// every change that alters a Result for an unchanged spec. Version 2
// samples stochastic injection by geometric skips over probability
// classes (version 1 drew one uniform per generator per slot).
const StreamVersion = 2

// Transmission is a protocol's request to send one packet over one link.
type Transmission struct {
	Link     int
	PacketID int64
}

// Protocol is a dynamic scheduling protocol driven by the simulator.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Inject hands the protocol the packets injected at slot t, before
	// Slot(t) is called.
	Inject(t int64, pkts []inject.Packet)
	// Slot returns the transmissions to attempt at slot t.
	Slot(t int64, rng *rand.Rand) []Transmission
	// Feedback reports the outcome of each attempted transmission of
	// slot t (acknowledgement-based feedback). The tx and success slices
	// are only valid for the duration of the call — the simulator reuses
	// them across slots.
	Feedback(t int64, tx []Transmission, success []bool)
}

// Config parameterises a simulation run.
type Config struct {
	// Slots is the number of time slots to simulate.
	Slots int64
	// SampleEvery sets the queue-length sampling period (0 = Slots/512,
	// min 1). The final executed slot is always sampled.
	SampleEvery int64
	// Seed seeds the run's random source.
	Seed int64
	// WarmupFrac excludes the first fraction of the run from latency
	// statistics. Must lie in [0, 1); 0 (the default) keeps everything.
	WarmupFrac float64
	// MaxLatencySlots sizes the latency histogram (0 = Slots).
	MaxLatencySlots int64
	// ResolveParallelism is the intra-slot worker count the run's
	// resolver is built with (interference.Model.NewResolver): 0 defers
	// to the model's own default (typically GOMAXPROCS), 1 forces
	// strictly serial resolution, n uses n workers; models that never
	// shard resolve serially whatever it asks. Models compiled from a
	// scenario take the same value as their construction worker count
	// (sinr.Options.Parallelism), so 1 also builds their cross tables
	// and weight matrices serially. It is a pure execution knob —
	// results are bit-identical for every value — so it is excluded
	// from scenario hashes.
	ResolveParallelism int
	// Checkpoint configures periodic state capture and resume (nil
	// disables both). Resumed runs are bit-identical to uninterrupted
	// ones; see CheckpointSpec.
	Checkpoint *CheckpointSpec
}

// Result aggregates the metrics of one run.
type Result struct {
	// Slots is the number of slots actually executed — cfg.Slots for a
	// completed run, fewer when the context was cancelled mid-run.
	Slots     int64 `json:"slots"`
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	InFlight  int64 `json:"inFlight"` // packets still queued at the end

	// Latency is the per-packet latency histogram (delivery − injection),
	// excluding the warm-up period.
	Latency *stats.Histogram `json:"latency"`
	// LatencyDigest is a mergeable quantile sketch of the same
	// deliveries: unlike the histogram its shape is config-independent,
	// so digests from different runs (or plan units) always merge.
	LatencyDigest *stats.Digest `json:"latencyDigest,omitempty"`
	// HopLatency summarises latency divided by path length.
	HopLatency stats.Summary `json:"hopLatency"`
	// Queue is the sampled time series of in-flight packet counts.
	Queue stats.Series `json:"queue"`
	// Verdict classifies the queue series as stable or unstable.
	Verdict stats.StabilityVerdict `json:"verdict"`

	// ProtocolErrors counts transmissions the simulator rejected
	// (unknown packet, wrong link). Always 0 for a correct protocol.
	ProtocolErrors int64 `json:"protocolErrors"`
	// AttemptedTx and SuccessfulTx count link-level transmissions.
	AttemptedTx  int64 `json:"attemptedTx"`
	SuccessfulTx int64 `json:"successfulTx"`

	// PerLinkServed counts successful transmissions per link.
	PerLinkServed []int64 `json:"perLinkServed"`
	// PerLinkAttempts counts attempted transmissions per link.
	PerLinkAttempts []int64 `json:"perLinkAttempts"`
}

// LinkUtilization returns the fraction of slots in which link e carried
// a successful transmission.
func (r *Result) LinkUtilization(e int) float64 {
	if r.Slots == 0 || e < 0 || e >= len(r.PerLinkServed) {
		return 0
	}
	return float64(r.PerLinkServed[e]) / float64(r.Slots)
}

// FairnessIndex returns Jain's fairness index over per-link service
// counts, restricted to links that participated at all — attempted, or
// served even without a recorded attempt: 1 means perfectly even
// service, 1/k means one of k links got everything.
func (r *Result) FairnessIndex() float64 {
	var sum, sumSq float64
	n := 0
	for e, served := range r.PerLinkServed {
		attempted := e < len(r.PerLinkAttempts) && r.PerLinkAttempts[e] > 0
		if served == 0 && !attempted {
			continue
		}
		s := float64(served)
		sum += s
		sumSq += s * s
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Throughput returns delivered packets per slot.
func (r *Result) Throughput() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Slots)
}

// cancelCheckMask throttles the per-slot context poll: the context is
// consulted every 1024 slots, so cancellation lands within microseconds
// of wall-clock while the hot loop stays branch-cheap.
const cancelCheckMask = 1<<10 - 1

// Run simulates the protocol against the model and injection process,
// notifying the stock metric observers plus any extras. A nil ctx is
// treated as context.Background(). When the context is cancelled or
// times out mid-run, Run stops promptly and returns the partial result
// — metrics complete up to the last executed slot, with Result.Slots
// reflecting the early stop — together with an error wrapping the
// context's error.
func Run(ctx context.Context, cfg Config, model interference.Model, proc inject.Process, proto Protocol, extra ...Observer) (*Result, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("sim: non-positive slot count %d", cfg.Slots)
	}
	if cfg.WarmupFrac < 0 || cfg.WarmupFrac >= 1 {
		return nil, fmt.Errorf("sim: WarmupFrac %v outside [0,1) — 0 keeps every latency sample, values near 1 would discard them all", cfg.WarmupFrac)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = cfg.Slots / 512
		if sample < 1 {
			sample = 1
		}
	}
	maxLat := cfg.MaxLatencySlots
	if maxLat <= 0 {
		maxLat = cfg.Slots
	}
	latBucket := float64(maxLat) / 256
	if latBucket < 1 {
		latBucket = 1
	}
	// The engine RNG runs behind a draw-counting source so its stream
	// position can be checkpointed; the wrapper delegates every draw,
	// so the stream is identical to a bare rand.NewSource(cfg.Seed).
	src := randx.NewCounting(cfg.Seed)
	rng := rand.New(src)
	res := &Result{}
	obs := make([]Observer, 0, 3+len(extra))
	obs = append(obs,
		&latencyObserver{
			warmupEnd: int64(cfg.WarmupFrac * float64(cfg.Slots)),
			hist:      stats.NewHistogram(latBucket, 257),
			digest:    stats.NewDigest(0),
		},
		newQueueObserver(cfg.Slots, sample),
		&linkObserver{
			served:   make([]int64, model.NumLinks()),
			attempts: make([]int64, model.NumLinks()),
		},
	)
	obs = append(obs, extra...)

	// Packet ground truth lives in a free-list arena addressed by dense
	// handles, holding each injected packet's shared path: the
	// steady-state packet lifecycle — inject, transmit, deliver —
	// performs no heap allocations.
	arena := newPacketArena()
	// Per-run slot resolver and link buffer: the model's resolver
	// reuses its buffers (sharding large slots across intra-slot
	// workers when asked), and the link vector is reused.
	resolve, resolveStats := model.NewResolver(cfg.ResolveParallelism)
	for _, o := range obs {
		if ro, ok := o.(ResolveObserver); ok {
			ro.OnResolve(resolveStats)
		}
	}
	var links []int

	finish := func(executed int64) {
		res.Slots = executed
		res.InFlight = int64(arena.len())
		for _, o := range obs {
			o.OnEnd(res)
		}
	}

	// Checkpointing: resume fast-forwards to the checkpoint slot;
	// capture fires every Every slots, deferred until all aligners
	// (the frame-structured protocol) reach a serializable boundary.
	ck := cfg.Checkpoint
	capture := ck != nil && ck.Every > 0 && ck.Sink != nil
	t0 := int64(0)
	if ck != nil && ck.Resume != nil {
		var err error
		t0, err = restoreCheckpoint(ck.Resume, cfg, src, res, arena, model, proc, proto, obs)
		if err != nil {
			return nil, fmt.Errorf("sim: resume from checkpoint: %w", err)
		}
	}
	ckDue := false

	for t := t0; t < cfg.Slots; t++ {
		if t&cancelCheckMask == 0 && ctx.Err() != nil {
			finish(t)
			return res, fmt.Errorf("sim: run cancelled after %d of %d slots: %w", t, cfg.Slots, ctx.Err())
		}

		// 1. Injection.
		pkts := proc.Step(t, rng)
		for _, p := range pkts {
			arena.insert(p.ID, p.Path, t)
		}
		res.Injected += int64(len(pkts))
		if len(pkts) > 0 {
			proto.Inject(t, pkts)
			for _, o := range obs {
				o.OnInject(t, pkts)
			}
		}

		// 2. The protocol picks transmissions; invalid ones are dropped.
		want := proto.Slot(t, rng)
		tx := want[:0]
		for _, w := range want {
			st := arena.get(w.PacketID)
			if st == nil || st.hop >= len(st.path) || int(st.path[st.hop]) != w.Link {
				res.ProtocolErrors++
				continue
			}
			tx = append(tx, w)
		}

		// 3. Resolve the slot physically.
		if cap(links) < len(tx) {
			links = make([]int, len(tx), 2*len(tx))
		}
		links = links[:len(tx)]
		for i, w := range tx {
			links[i] = w.Link
		}
		success := resolve(links)
		res.AttemptedTx += int64(len(tx))

		// 4. Advance packets and deliver.
		for i, w := range tx {
			if !success[i] {
				continue
			}
			res.SuccessfulTx++
			st := arena.get(w.PacketID)
			st.hop++
			if st.hop == len(st.path) {
				res.Delivered++
				d := Delivery{
					PacketID: w.PacketID,
					Link:     w.Link,
					Injected: st.injected,
					PathLen:  len(st.path),
				}
				for _, o := range obs {
					o.OnDeliver(t, d)
				}
				arena.remove(w.PacketID)
			}
		}
		proto.Feedback(t, tx, success)

		// 5. End-of-slot observation (metrics sampling lives here).
		view := SlotView{Tx: tx, Success: success, InFlight: arena.len()}
		for _, o := range obs {
			o.OnSlot(t, view)
		}

		// 6. Periodic checkpoint, once the protocol is at a boundary.
		// The final slot is skipped — the run is about to finish.
		if capture && t+1 < cfg.Slots {
			if (t+1)%ck.Every == 0 {
				ckDue = true
			}
			if ckDue && checkpointAligned(t+1, model, proc, proto) {
				ckDue = false
				cp, err := captureCheckpoint(t+1, cfg, src, res, arena, model, proc, proto, obs)
				if err == nil {
					err = ck.Sink(cp)
				}
				if err != nil {
					finish(t + 1)
					return res, fmt.Errorf("sim: checkpoint at slot %d: %w", t+1, err)
				}
			}
		}
	}
	finish(cfg.Slots)
	return res, nil
}
