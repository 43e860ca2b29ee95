package sim

import (
	"context"
	"math/rand"
	"testing"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// fifoProto is a minimal correct protocol: every link with queued
// packets transmits its head of line each slot.
type fifoProto struct {
	byLink [][]*fifoPkt
	held   int
}

type fifoPkt struct {
	id   int64
	path []int
	hop  int
}

func newFifoProto(links int) *fifoProto { return &fifoProto{byLink: make([][]*fifoPkt, links)} }

func (f *fifoProto) Name() string { return "test-fifo" }

func (f *fifoProto) Inject(t int64, pkts []inject.Packet) {
	for _, ip := range pkts {
		path := make([]int, len(ip.Path))
		for i, e := range ip.Path {
			path[i] = int(e)
		}
		p := &fifoPkt{id: ip.ID, path: path}
		f.byLink[path[0]] = append(f.byLink[path[0]], p)
		f.held++
	}
}

func (f *fifoProto) Slot(t int64, rng *rand.Rand) []Transmission {
	var out []Transmission
	for e := range f.byLink {
		if len(f.byLink[e]) > 0 {
			out = append(out, Transmission{Link: e, PacketID: f.byLink[e][0].id})
		}
	}
	return out
}

func (f *fifoProto) Feedback(t int64, tx []Transmission, success []bool) {
	for i, w := range tx {
		if !success[i] {
			continue
		}
		p := f.byLink[w.Link][0]
		f.byLink[w.Link] = f.byLink[w.Link][1:]
		p.hop++
		if p.hop < len(p.path) {
			next := p.path[p.hop]
			f.byLink[next] = append(f.byLink[next], p)
		} else {
			f.held--
		}
	}
}

// buggyProto transmits a wrong link for its packet.
type buggyProto struct{ fifoProto }

func (b *buggyProto) Slot(t int64, rng *rand.Rand) []Transmission {
	out := b.fifoProto.Slot(t, rng)
	for i := range out {
		out[i].Link = (out[i].Link + 1) % len(b.byLink)
	}
	return out
}

func singleHopProcess(t *testing.T, m interference.Model, links int, p float64) inject.Process {
	t.Helper()
	gens := make([]inject.Generator, links)
	for i := range gens {
		gens[i] = inject.Generator{Choices: []inject.PathChoice{
			{Path: netgraph.Path{netgraph.LinkID(i)}, P: p},
		}}
	}
	s, err := inject.NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunConservation(t *testing.T) {
	m := interference.Identity{Links: 4}
	proc := singleHopProcess(t, m, 4, 0.3)
	proto := newFifoProto(4)
	res, err := Run(context.Background(), Config{Slots: 5000, Seed: 121}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.InFlight != res.Injected {
		t.Fatalf("conservation violated: %d delivered + %d in flight != %d injected",
			res.Delivered, res.InFlight, res.Injected)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("correct protocol produced %d errors", res.ProtocolErrors)
	}
	if res.Injected == 0 {
		t.Fatal("no packets injected")
	}
	// Identity model at λ=0.3 per link under FIFO is stable.
	if !res.Verdict.Stable {
		t.Errorf("identity FIFO at 0.3 judged unstable: %+v", res.Verdict)
	}
	// Single-hop latency on an uncontended link is small.
	if res.Latency.Mean() > 10 {
		t.Errorf("mean latency %v too large", res.Latency.Mean())
	}
}

func TestRunMultiHopLatency(t *testing.T) {
	// A 4-hop line: identity model, single generator, occasional packet.
	g := netgraph.LineNetwork(5, 1)
	m := interference.Identity{Links: g.NumLinks()}
	path, ok := netgraph.ShortestPath(g, 0, 4)
	if !ok || len(path) != 4 {
		t.Fatal("bad line path")
	}
	gens := []inject.Generator{{Choices: []inject.PathChoice{{Path: path, P: 0.05}}}}
	proc, err := inject.NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	proto := newFifoProto(g.NumLinks())
	res, err := Run(context.Background(), Config{Slots: 8000, Seed: 122}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Uncontended 4-hop packets take exactly 4 slots (one per hop).
	if hl := res.HopLatency.Mean(); hl < 0.9 || hl > 2 {
		t.Errorf("per-hop latency %v, want ≈1", hl)
	}
}

func TestRunRejectsBuggyProtocol(t *testing.T) {
	m := interference.Identity{Links: 3}
	proc := singleHopProcess(t, m, 3, 0.4)
	proto := &buggyProto{*newFifoProto(3)}
	res, err := Run(context.Background(), Config{Slots: 300, Seed: 123}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors == 0 {
		t.Fatal("buggy protocol not detected")
	}
	if res.Delivered != 0 {
		t.Fatal("invalid transmissions were delivered")
	}
}

func TestRunOverloadDetectedUnstable(t *testing.T) {
	// MAC model (one success per slot) with total injection rate 2:
	// queues must grow and the verdict must be unstable.
	m := interference.AllOnes{Links: 4}
	proc := singleHopProcess(t, m, 4, 0.5)
	proto := newFifoProto(4)
	res, err := Run(context.Background(), Config{Slots: 4000, Seed: 124}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Stable {
		t.Errorf("overloaded MAC judged stable: %+v", res.Verdict)
	}
	if res.InFlight < 1000 {
		t.Errorf("in-flight %d suspiciously small under 2× overload", res.InFlight)
	}
}

func TestRunConfigValidation(t *testing.T) {
	m := interference.Identity{Links: 1}
	proc := singleHopProcess(t, m, 1, 0.1)
	if _, err := Run(context.Background(), Config{Slots: 0}, m, proc, newFifoProto(1)); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	m := interference.Identity{Links: 3}
	run := func() *Result {
		proc := singleHopProcess(t, m, 3, 0.3)
		res, err := Run(context.Background(), Config{Slots: 2000, Seed: 125}, m, proc, newFifoProto(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Injected != b.Injected || a.Delivered != b.Delivered || a.SuccessfulTx != b.SuccessfulTx {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestWarmupExcludesEarlyLatencies(t *testing.T) {
	m := interference.Identity{Links: 2}
	proc := singleHopProcess(t, m, 2, 0.2)
	res, err := Run(context.Background(), Config{Slots: 2000, Seed: 126, WarmupFrac: 0.5}, m, proc, newFifoProto(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.N() >= res.Delivered {
		t.Errorf("warm-up did not exclude anything: %d recorded of %d delivered",
			res.Latency.N(), res.Delivered)
	}
}

func TestPerLinkMetricsAndFairness(t *testing.T) {
	m := interference.Identity{Links: 3}
	proc := singleHopProcess(t, m, 3, 0.3)
	res, err := Run(context.Background(), Config{Slots: 4000, Seed: 127}, m, proc, newFifoProto(3))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for e := 0; e < 3; e++ {
		if res.PerLinkServed[e] > res.PerLinkAttempts[e] {
			t.Fatalf("link %d served %d > attempted %d", e, res.PerLinkServed[e], res.PerLinkAttempts[e])
		}
		total += res.PerLinkServed[e]
		u := res.LinkUtilization(e)
		if u <= 0 || u > 1 {
			t.Fatalf("link %d utilization %v", e, u)
		}
	}
	if total != res.SuccessfulTx {
		t.Fatalf("per-link sum %d != total successes %d", total, res.SuccessfulTx)
	}
	// Symmetric workload: fairness near 1.
	if f := res.FairnessIndex(); f < 0.95 || f > 1 {
		t.Errorf("fairness %v, want ≈1 for symmetric load", f)
	}
	// Out-of-range utilization query is 0, empty result fairness is 1.
	if res.LinkUtilization(99) != 0 {
		t.Error("out-of-range utilization not 0")
	}
	empty := &Result{PerLinkServed: []int64{}, PerLinkAttempts: []int64{}}
	if empty.FairnessIndex() != 1 {
		t.Error("empty fairness not 1")
	}
}

func TestFairnessDetectsStarvation(t *testing.T) {
	// The Figure-1-style starvation shows up as a depressed index: serve
	// one link everything, another nothing (but attempted).
	r := &Result{
		Slots:           100,
		PerLinkServed:   []int64{90, 0},
		PerLinkAttempts: []int64{90, 50},
	}
	if f := r.FairnessIndex(); f > 0.55 {
		t.Errorf("fairness %v, want ≈0.5 for total starvation of one of two links", f)
	}
}
