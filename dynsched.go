// Package dynsched is a library for dynamic packet scheduling in
// wireless networks, reproducing Thomas Kesselheim's PODC 2012 paper
// "Dynamic Packet Scheduling in Wireless Networks".
//
// The library turns algorithms for the *static* scheduling problem
// (deliver a fixed set of transmission requests in few time slots) into
// *dynamic, stable* protocols that serve packets injected over time —
// stochastically or by a bounded adversary — with bounded expected
// queues and latency. The transformation is black-box and works for any
// interference model expressible as a linear interference measure: a
// matrix W over communication links with I = ‖W·R‖∞. Instantiations
// include the SINR (physical) model with fixed or protocol-chosen
// powers, conflict graphs, the multiple-access channel, and
// packet-routing networks.
//
// # Quick start
//
// Experiments are declared as Scenario values — network, interference
// model, traffic, protocol and simulation parameters in one
// JSON-serialisable struct — then compiled and run:
//
//	sc := dynsched.NewScenario("quickstart",
//		dynsched.WithModel("identity"),
//		dynsched.WithTopology("line"),
//		dynsched.WithNodes(6), dynsched.WithHops(5),
//		dynsched.WithLambda(0.4),
//		dynsched.WithAlgorithm("full-parallel"),
//		dynsched.WithSlots(50_000), dynsched.WithSeed(1),
//	)
//	res, _ := sc.Run(ctx)
//	fmt.Println(res.Verdict.Stable, res.Latency.Mean())
//
// Named scenarios register process-wide (RegisterScenario, Scenarios,
// ScenarioByName) and run from cmd/dynsched by name; custom metrics
// attach as sim.Observer values without touching the engine. The
// underlying primitives (networks, models, injection processes,
// protocols, Simulate) remain exported below for programs that need to
// assemble components by hand; replications run through
// Scenario.Replicate.
//
// See the examples directory for complete programs and README.md for
// the module layout.
package dynsched

import (
	"context"
	"io"
	"math/rand"

	"dynsched/internal/baseline"
	"dynsched/internal/capacity"
	"dynsched/internal/conflict"
	"dynsched/internal/core"
	"dynsched/internal/geom"
	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/lowerbound"
	"dynsched/internal/mac"
	"dynsched/internal/netgraph"
	"dynsched/internal/radio"
	"dynsched/internal/sim"
	"dynsched/internal/sinr"
	"dynsched/internal/static"
	"dynsched/internal/traffic"
)

// ---- Geometry and networks ----

// Point is a planar location.
type Point = geom.Point

// NodeID identifies a network node.
type NodeID = netgraph.NodeID

// LinkID identifies a directed communication link.
type LinkID = netgraph.LinkID

// Graph is a directed communication graph.
type Graph = netgraph.Graph

// Path is a packet's fixed route, as a sequence of link IDs.
type Path = netgraph.Path

// Instance couples a graph with the path-length bound D; its M() is the
// significant network size m = max(|E|, D).
type Instance = netgraph.Instance

// NewGraph creates an empty graph with n nodes.
func NewGraph(n int) *Graph { return netgraph.New(n) }

// GridNetwork builds a rows×cols grid with bidirectional neighbour links.
func GridNetwork(rows, cols int, spacing float64) *Graph {
	return netgraph.GridNetwork(rows, cols, spacing)
}

// LineNetwork builds n collinear nodes with bidirectional neighbour links.
func LineNetwork(n int, spacing float64) *Graph { return netgraph.LineNetwork(n, spacing) }

// ShortestPath returns a minimum-hop path between two nodes.
func ShortestPath(g *Graph, u, v NodeID) (Path, bool) { return netgraph.ShortestPath(g, u, v) }

// NewInstance wraps a graph with the path-length bound D.
func NewInstance(g *Graph, maxPathLen int) *Instance { return netgraph.NewInstance(g, maxPathLen) }

// ---- Interference models ----

// Model is the central abstraction: the analysis matrix W plus the
// slot-level ground truth of which simultaneous transmissions succeed.
type Model = interference.Model

// Identity is the packet-routing model (W = identity; measure = congestion).
type Identity = interference.Identity

// MAC is the multiple-access-channel model (W = all ones; one success
// per slot network-wide).
type MAC = interference.AllOnes

// Lossy wraps a model with independent per-transmission loss.
type Lossy = interference.Lossy

// Measure returns I = ‖W·R‖∞ for a request vector. Models that expose
// their matrix in CSR form are evaluated in O(nnz).
func Measure(m Model, r []int) float64 { return interference.Measure(m, r) }

// SINRParams are the physical constants of the SINR model.
type SINRParams = sinr.Params

// PowerKind names the built-in SINR power-assignment families.
type PowerKind = sinr.PowerKind

// SINR power assignment families.
const (
	PowerUniform    = sinr.PowerUniform
	PowerLinear     = sinr.PowerLinear
	PowerSquareRoot = sinr.PowerSquareRoot
)

// WeightKind selects the Section 6.1 weight-matrix construction.
type WeightKind = sinr.WeightKind

// SINR fixed-power weight-matrix constructions.
const (
	WeightAffectance = sinr.WeightAffectance
	WeightMonotone   = sinr.WeightMonotone
)

// SINRFixedPower is the physical model with fixed per-link powers.
type SINRFixedPower = sinr.FixedPower

// SINRPowerControl is the physical model where the protocol chooses
// powers per transmission.
type SINRPowerControl = sinr.PowerControl

// DefaultSINRParams returns α=3, β=1.5, negligible noise.
func DefaultSINRParams() SINRParams { return sinr.DefaultParams() }

// SINRPowers computes per-link powers for a built-in family.
func SINRPowers(g *Graph, prm SINRParams, kind PowerKind, base float64) ([]float64, error) {
	return sinr.Powers(g, prm, kind, base)
}

// NewSINRFixedPower builds a fixed-power SINR model on a positioned graph.
func NewSINRFixedPower(g *Graph, prm SINRParams, powers []float64, kind WeightKind) (*SINRFixedPower, error) {
	return sinr.NewFixedPower(g, prm, powers, kind)
}

// NewSINRPowerControl builds the power-control SINR model of Section 6.2.
func NewSINRPowerControl(g *Graph, prm SINRParams) (*SINRPowerControl, error) {
	return sinr.NewPowerControl(g, prm)
}

// IsFadingMetric reports whether the graph's node metric is a fading
// metric for the parameters (α above the estimated doubling dimension),
// the regime where Corollary 14's ratio improves to O(log m).
func IsFadingMetric(g *Graph, prm SINRParams) bool { return sinr.IsFadingMetric(g, prm) }

// DoublingDimension estimates the doubling dimension of a finite metric
// given by its distance matrix.
func DoublingDimension(dist [][]float64) float64 { return geom.DoublingDimension(dist) }

// ConflictGraph is an undirected conflict relation over links.
type ConflictGraph = conflict.Graph

// NodeConstraintConflicts builds the conflict graph in which links
// sharing an endpoint conflict.
func NodeConstraintConflicts(g *Graph) *ConflictGraph { return conflict.NodeConstraint(g) }

// NewConflictModel adapts a conflict graph and ordering (nil = degeneracy
// order) into an interference model per Section 7.2.
func NewConflictModel(cg *ConflictGraph, order []int) (Model, error) {
	return conflict.NewModel(cg, order)
}

// ---- Static algorithms ----

// Request is a single-hop transmission demand for static scheduling.
type Request = static.Request

// StaticAlgorithm schedules a fixed set of requests.
type StaticAlgorithm = static.Algorithm

// StaticResult summarises a standalone static run.
type StaticResult = static.Result

// Decay is the 1/(4I) randomized algorithm of Theorem 19 (O(I·log n)).
type Decay = static.Decay

// Spread is the delay-spreading O(I + polylog) algorithm used for
// linear power assignments (Corollary 12).
type Spread = static.Spread

// Densify is Algorithm 1: the Section 3 transformation making schedule
// lengths linear in I for dense instances.
type Densify = static.Densify

// Trivial serves one request per slot (the universal fallback).
type Trivial = static.Trivial

// FullParallel fires every link each slot (optimal for packet routing).
type FullParallel = static.FullParallel

// GreedyPowerControl is the centralized scheduler for the power-control
// model (Corollary 14).
type GreedyPowerControl = static.GreedyPowerControl

// MACDecay is Algorithm 2, the symmetric multiple-access-channel scheme
// of Lemma 15.
type MACDecay = mac.Decay

// RoundRobinWithholding is the asymmetric deterministic MAC scheme of
// Lemma 17.
type RoundRobinWithholding = mac.RoundRobinWithholding

// RunStatic drives a static algorithm to completion (maxSlots ≤ 0 uses
// the algorithm's own budget).
func RunStatic(seed int64, m Model, alg StaticAlgorithm, reqs []Request, maxSlots int) StaticResult {
	return static.Run(newRand(seed), m, alg, reqs, maxSlots)
}

// RequestMeasure computes ‖W·R‖∞ of a request multiset.
func RequestMeasure(m Model, reqs []Request) float64 { return static.RequestMeasure(m, reqs) }

// ---- Injection ----

// Packet is an injected communication request with a fixed path.
type Packet = inject.Packet

// InjectionProcess produces the packets arriving at each slot. Each
// packet's Path is shared read-only for the packet's lifetime — the
// simulator and protocols retain the slice itself until delivery — so
// an implementation must never write to a path it has handed out.
type InjectionProcess = inject.Process

// Generator is one user of the stochastic injection model.
type Generator = inject.Generator

// PathChoice is a (path, probability) option of a generator.
type PathChoice = inject.PathChoice

// Stochastic is the finite-user i.i.d. injection process of Section 2.1.
type Stochastic = inject.Stochastic

// NewStochastic builds a stochastic process and computes its rate.
func NewStochastic(m Model, gens []Generator) (*Stochastic, error) {
	return inject.NewStochastic(m, gens)
}

// StochasticAtRate scales generators to an exact injection rate λ.
func StochasticAtRate(m Model, gens []Generator, lambda float64) (*Stochastic, error) {
	return inject.StochasticAtRate(m, gens, lambda)
}

// InjectionTrace is a recorded arrival sequence replayable across runs,
// for paired protocol comparisons. Traces serialize to NDJSON
// (WriteNDJSON / ParseTrace) and embed in scenario documents as
// TraceEvent lists (Records / WithTrace).
type InjectionTrace = inject.Trace

// RecordInjections runs a process for the given horizon and captures
// every arrival.
func RecordInjections(proc InjectionProcess, slots, seed int64) *InjectionTrace {
	return inject.Record(proc, slots, newRand(seed))
}

// ParseTrace reads a workload recorded in NDJSON form — one header
// line then one line per packet, the format InjectionTrace.WriteNDJSON
// emits. ParseTrace∘WriteNDJSON is the identity, so replaying a
// shipped trace is byte-identical to replaying the recording.
func ParseTrace(r io.Reader) (*InjectionTrace, error) { return inject.TraceFromNDJSON(r) }

// ---- The dynamic protocol (the paper's contribution) ----

// ProtocolConfig parameterises the dynamic protocol.
type ProtocolConfig = core.Config

// Protocol is the frame-based dynamic scheduling protocol of Sections
// 4–5.
type Protocol = core.Protocol

// Sizing describes the protocol's derived frame layout.
type Sizing = core.Sizing

// NewProtocol builds the dynamic protocol, solving for the frame length
// when cfg.T is zero.
func NewProtocol(cfg ProtocolConfig) (*Protocol, error) { return core.New(cfg) }

// SolveFrameLength finds the smallest self-consistent frame length for
// an algorithm at rate λ with headroom ε.
func SolveFrameLength(alg StaticAlgorithm, numLinks, m int, lambda, eps float64) (int, error) {
	return core.SolveFrameLength(alg, numLinks, m, lambda, eps)
}

// ConcentrationFrameLength returns the frame length that puts the frame
// capacity `sigmas` standard deviations above the mean arrivals.
func ConcentrationFrameLength(lambda, eps, sigmas float64) int {
	return core.ConcentrationFrameLength(lambda, eps, sigmas)
}

// ---- Baselines ----

// NewMaxWeight builds the centralized Tassiulas–Ephremides reference
// scheduler.
func NewMaxWeight(m Model) *baseline.MaxWeight { return baseline.NewMaxWeight(m) }

// NewMACFallback builds the serializing O(m)-competitive fallback.
func NewMACFallback(numLinks int) *baseline.MACFallback { return baseline.NewMACFallback(numLinks) }

// NewFIFOGreedy builds the greedy per-link FIFO protocol.
func NewFIFOGreedy(numLinks int) *baseline.FIFOGreedy { return baseline.NewFIFOGreedy(numLinks) }

// ---- Lower bound (Theorem 20 / Figure 1) ----

// Figure1Model is the lower-bound instance: m−1 interference-free short
// links plus one long link requiring global silence.
type Figure1Model = lowerbound.Model

// NewGlobalTDM builds the global-clock even/odd protocol for Figure 1.
func NewGlobalTDM(m Figure1Model) *lowerbound.GlobalTDM { return lowerbound.NewGlobalTDM(m) }

// NewLocalGreedy builds the local-clock greedy protocol for Figure 1.
func NewLocalGreedy(m Figure1Model) *lowerbound.LocalGreedy { return lowerbound.NewLocalGreedy(m) }

// ---- Radio-network model (§7.2) ----

// RadioModel is the broadcast interference model: a node receives iff
// exactly one audible neighbour transmits.
type RadioModel = radio.Model

// NewRadioModel derives the radio model (and its conflict-graph W) from
// a communication graph.
func NewRadioModel(g *Graph) (*RadioModel, error) { return radio.New(g) }

// ---- Traffic workloads ----

// TrafficSingleHop injects one generator per link at the given rate.
func TrafficSingleHop(m Model, lambda float64) (*Stochastic, error) {
	return traffic.SingleHop(m, lambda)
}

// TrafficPaths spreads the rate across explicit paths.
func TrafficPaths(m Model, paths []Path, lambda float64) (*Stochastic, error) {
	return traffic.Paths(m, paths, lambda)
}

// TrafficConvergecast routes every node to a sink; it returns the
// process and the longest route.
func TrafficConvergecast(m Model, g *Graph, sink NodeID, lambda float64) (*Stochastic, int, error) {
	return traffic.Convergecast(m, g, sink, lambda)
}

// ---- Capacity references ----

// SlotCapacity estimates the largest number of links deliverable in a
// single slot (exact for ≤20 links, randomized greedy beyond).
func SlotCapacity(seed int64, m Model) int {
	return capacity.SlotCapacity(rand.New(rand.NewSource(seed)), m)
}

// MaxFeasibleMeasure estimates the optimal protocol's per-slot measure
// throughput: the largest ‖W·R‖∞ of any single-slot feasible set.
func MaxFeasibleMeasure(seed int64, m Model, rounds int) float64 {
	return capacity.MaxFeasibleMeasure(rand.New(rand.NewSource(seed)), m, rounds)
}

// ---- Simulation ----

// SimConfig parameterises a simulation run.
type SimConfig = sim.Config

// SimResult aggregates a run's metrics.
type SimResult = sim.Result

// SimProtocol is the interface dynamic protocols implement.
type SimProtocol = sim.Protocol

// Transmission is a protocol's request to send one packet on one link.
type Transmission = sim.Transmission

// SimObserver receives simulation lifecycle events (OnInject, OnSlot,
// OnDeliver, OnEnd). Attach custom observers via SimulateContext or
// Scenario observers to collect metrics the engine does not know about.
type SimObserver = sim.Observer

// BaseObserver is a no-op SimObserver for embedding, so custom
// observers implement only the events they care about.
type BaseObserver = sim.BaseObserver

// SlotView is the per-slot snapshot handed to observers.
type SlotView = sim.SlotView

// SimProgress is a live snapshot of a running simulation — slots done,
// injection/delivery counters and a streaming latency summary — as
// emitted by the progress observer and dynschedd's event stream.
type SimProgress = sim.Progress

// NewProgressObserver builds an observer that emits a SimProgress
// snapshot every `every` slots (0 = totalSlots/20) plus a final one
// when the run ends; attach it via WithObservers or SimulateContext.
// report runs on the engine goroutine: keep it cheap or hand off.
func NewProgressObserver(totalSlots, every int64, report func(SimProgress)) SimObserver {
	return sim.NewProgressObserver(totalSlots, every, report)
}

// Delivery describes one packet reaching the end of its path.
type Delivery = sim.Delivery

// Simulate runs a protocol against a model and injection process. It is
// a thin wrapper over SimulateContext with a background context.
func Simulate(cfg SimConfig, m Model, proc InjectionProcess, proto SimProtocol) (*SimResult, error) {
	return sim.Run(context.Background(), cfg, m, proc, proto)
}

// SimulateContext runs a protocol with cancellation/deadline support
// and optional extra observers. When ctx is cancelled mid-run it
// returns the partial result together with an error wrapping the
// context's error.
func SimulateContext(ctx context.Context, cfg SimConfig, m Model, proc InjectionProcess, proto SimProtocol, obs ...SimObserver) (*SimResult, error) {
	return sim.Run(ctx, cfg, m, proc, proto, obs...)
}

// Checkpoint is a resumable snapshot of a running simulation, taken at
// a protocol frame boundary: RNG positions, in-flight packets, and
// component/observer state, all JSON-serialisable. Resuming a run from
// a checkpoint produces a final result byte-identical to the
// uninterrupted run.
type Checkpoint = sim.Checkpoint

// CheckpointSpec configures checkpointing on SimConfig: take a
// snapshot every Every slots into Sink, and/or resume from Resume.
type CheckpointSpec = sim.CheckpointSpec

// CheckpointableObserver is a SimObserver whose state survives
// checkpoint/resume.
type CheckpointableObserver = sim.CheckpointableObserver

// SupportsCheckpoint reports whether a component combination can be
// checkpointed: the process and protocol must serialize their state,
// and the model must either be stateless or declare itself ready.
func SupportsCheckpoint(m Model, proc InjectionProcess, proto SimProtocol) bool {
	return sim.SupportsCheckpoint(m, proc, proto)
}

// ReplicateResult aggregates independent replications — the result of
// Scenario.Replicate and of a replication plan.
type ReplicateResult = sim.ReplicateResult

// SubSeed derives the seed of shard i from a base seed via a SplitMix64
// step — well-separated deterministic streams for parallel shards.
func SubSeed(base int64, shard int) int64 { return sim.SubSeed(base, shard) }
