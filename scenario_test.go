package dynsched

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/core"
	"dynsched/internal/inject"
	"dynsched/internal/mac"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
	"dynsched/internal/sinr"
	"dynsched/internal/static"
	"dynsched/internal/traffic"
)

// TestScenarioSINRBitIdentical pins the acceptance criterion: the
// registered stochastic-SINR scenario, run declaratively, produces
// results bit-identical to the same experiment hand-assembled from the
// primitives at the same seed.
func TestScenarioSINRBitIdentical(t *testing.T) {
	sc, ok := ScenarioByName("sinr-stochastic")
	if !ok {
		t.Fatal("sinr-stochastic not registered")
	}
	declarative, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Hand-assembled equivalent: 16 random sender–receiver pairs, fixed
	// linear powers with calibrated noise, single-hop stochastic traffic
	// at λ=0.05, Spread wrapped into the dynamic protocol.
	rng := rand.New(rand.NewSource(1))
	g := netgraph.RandomPairs(rng, 16, 10*4+10, 1, 4)
	prm := sinr.DefaultParams()
	powers, err := sinr.Powers(g, prm, sinr.PowerLinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm.Noise = sinr.MaxNoise(g, prm, powers, 0.5)
	model, err := sinr.NewFixedPower(g, prm, powers, sinr.WeightAffectance)
	if err != nil {
		t.Fatal(err)
	}
	var paths []netgraph.Path
	for e := 0; e < g.NumLinks(); e++ {
		paths = append(paths, netgraph.Path{netgraph.LinkID(e)})
	}
	proc, err := traffic.Paths(model, paths, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(core.Config{
		Model: model, Alg: static.Spread{}, M: netgraph.NewInstance(g, 1).M(),
		Lambda: 0.05, Eps: 0.25, D: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	handmade, err := sim.Run(context.Background(),
		sim.Config{Slots: 40_000, Seed: 1, WarmupFrac: 0.1}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(declarative, handmade) {
		t.Fatalf("scenario run diverged from hand-assembled run:\nscenario: %+v\nhandmade: %+v",
			declarative, handmade)
	}
}

// TestScenarioMACAdversarialBitIdentical is the adversarial-MAC half of
// the acceptance criterion.
func TestScenarioMACAdversarialBitIdentical(t *testing.T) {
	sc, ok := ScenarioByName("mac-adversarial")
	if !ok {
		t.Fatal("mac-adversarial not registered")
	}
	declarative, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	g := netgraph.MACChannel(8)
	model := MAC{Links: 8}
	var paths []netgraph.Path
	for e := 0; e < g.NumLinks(); e++ {
		paths = append(paths, netgraph.Path{netgraph.LinkID(e)})
	}
	adv, err := inject.NewPattern(model, paths, 64, 0.5, inject.TimingBurst)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(core.Config{
		Model: model, Alg: mac.RoundRobinWithholding{}, M: netgraph.NewInstance(g, 1).M(),
		Lambda: 0.5, Eps: 0.25, Window: 64, D: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	handmade, err := sim.Run(context.Background(),
		sim.Config{Slots: 40_000, Seed: 1, WarmupFrac: 0.1}, model, adv, proto)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(declarative, handmade) {
		t.Fatalf("scenario run diverged from hand-assembled run:\nscenario: %+v\nhandmade: %+v",
			declarative, handmade)
	}
}

// windowAccounting is a custom observer (per-window adversary
// accounting) attached through the Scenario API without modifying the
// engine: it tracks the largest number of packets injected in any
// adversary window.
type windowAccounting struct {
	BaseObserver
	window  int64
	current int64
	curWin  int64
	maxWin  int64
	total   int64
}

func (w *windowAccounting) OnInject(t int64, pkts []inject.Packet) {
	win := t / w.window
	if win != w.curWin {
		w.curWin, w.current = win, 0
	}
	w.current += int64(len(pkts))
	w.total += int64(len(pkts))
	if w.current > w.maxWin {
		w.maxWin = w.current
	}
}

func TestScenarioCustomObserver(t *testing.T) {
	acct := &windowAccounting{window: 64}
	sc, _ := ScenarioByName("mac-adversarial")
	sc.Sim.Slots = 8_000
	sc.Observers = []ObserverFactory{func() SimObserver { return acct }}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if acct.total != res.Injected {
		t.Errorf("observer counted %d injections, engine %d", acct.total, res.Injected)
	}
	// A (w=64, λ=0.5)-bounded burst adversary injects its whole window
	// budget at once: the per-window peak must be w·λ = 32 and may never
	// exceed the admissibility bound.
	if acct.maxWin == 0 || acct.maxWin > 32 {
		t.Errorf("per-window peak %d outside (0, 32]", acct.maxWin)
	}
}

func TestScenarioReplicateWithObservers(t *testing.T) {
	// Each replication must get a fresh observer from the factory.
	var made []*windowAccounting
	sc := NewScenario("replicated",
		WithModel("identity"), WithTopology("line"), WithNodes(5), WithHops(4),
		WithLambda(0.3), WithSlots(2_000),
		WithObservers(func() SimObserver {
			w := &windowAccounting{window: 64}
			made = append(made, w)
			return w
		}),
		WithParallel(1), // serial pool: the factory append is unsynchronised
	)
	res, err := sc.Replicate(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("got %d runs", len(res.Runs))
	}
	if len(made) != 3 {
		t.Fatalf("factory built %d observers, want 3", len(made))
	}
	var sum int64
	for i, w := range made {
		if w.total == 0 {
			t.Errorf("observer %d saw nothing", i)
		}
		sum += w.total
	}
	var injected int64
	for _, r := range res.Runs {
		injected += r.Injected
	}
	if sum != injected {
		t.Errorf("observers saw %d injections, replications %d", sum, injected)
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc, _ := ScenarioByName("grid-convergecast")
	data, err := sc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("scenario changed in round trip:\n%+v\nvs\n%+v", sc, back)
	}
	// Unknown keys fail loudly.
	if _, err := ParseScenario([]byte(`{"name":"x","sim":{"slots":10},"modle":{}}`)); err == nil {
		t.Fatal("typo key accepted")
	}
	// Invalid specs are rejected at parse time.
	if _, err := ParseScenario([]byte(`{"name":"x","sim":{"slots":0}}`)); err == nil {
		t.Fatal("zero-slot scenario accepted")
	}
}

func TestScenarioResultJSONRoundTrip(t *testing.T) {
	sc, _ := ScenarioByName("line-stochastic")
	sc.Sim.Slots = 3_000
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SimResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Injected != res.Injected || back.Delivered != res.Delivered ||
		back.Latency.Mean() != res.Latency.Mean() ||
		back.Queue.MeanV() != res.Queue.MeanV() ||
		back.Verdict.Stable != res.Verdict.Stable ||
		back.FairnessIndex() != res.FairnessIndex() {
		t.Fatalf("result changed in round trip:\n%+v\nvs\n%+v", back, res)
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "no name"},
		{"zero slots", func(s *Scenario) { s.Sim.Slots = 0 }, "slot count"},
		{"warmup", func(s *Scenario) { s.Sim.WarmupFrac = 1 }, "WarmupFrac"},
		{"pattern", func(s *Scenario) { s.Traffic.Pattern = "quantum" }, "traffic pattern"},
		{"sweep axis", func(s *Scenario) { s.Sweep = SweepSpec{Axis: "spin", Values: []float64{1}} }, "sweep axis"},
		{"sweep empty", func(s *Scenario) { s.Sweep = SweepSpec{Axis: "lambda"} }, "no values"},
		{"sinr resolve workers", func(s *Scenario) {
			s.Model.Kind, s.Sim.ResolveParallelism = "sinr-uniform", -1
		}, "resolveParallelism"},
	}
	for _, c := range cases {
		s := NewScenario("valid")
		c.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
	// Non-SINR models read a negative resolve worker count as
	// GOMAXPROCS, as before.
	if err := NewScenario("identity-resolve", WithResolveParallelism(-1)).Validate(); err != nil {
		t.Errorf("identity with resolveParallelism -1: %v", err)
	}
	// Unknown model/topology/alg surface from Compile.
	s := NewScenario("bad-model", WithModel("tachyon"))
	if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "tachyon") {
		t.Errorf("unknown model error: %v", err)
	}
}

func TestScenarioSweep(t *testing.T) {
	sc := NewScenario("sweep",
		WithModel("mac"), WithTopology("mac"), WithLinks(4), WithHops(1),
		WithAlgorithm("rrw"), WithSlots(4_000),
		WithSweep("lambda", 0.1, 0.6))
	pts, err := sc.RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d sweep points", len(pts))
	}
	for i, p := range pts {
		if p.Axis != "lambda" || p.Result == nil {
			t.Fatalf("point %d malformed: %+v", i, p)
		}
	}
	// More offered load must not deliver less.
	if pts[1].Result.Injected <= pts[0].Result.Injected {
		t.Errorf("λ=0.6 injected %d, not more than λ=0.1's %d",
			pts[1].Result.Injected, pts[0].Result.Injected)
	}
	// Sweeping without an axis is an explicit error.
	sc.Sweep = SweepSpec{}
	if _, err := sc.RunSweep(context.Background()); err == nil {
		t.Fatal("axis-less sweep accepted")
	}
}

func TestScenarioRegistry(t *testing.T) {
	if err := RegisterScenario(NewScenario("line-stochastic")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := RegisterScenario(Scenario{Name: "broken"}); err == nil {
		t.Fatal("invalid scenario registered")
	}
	all := Scenarios()
	if len(all) < 6 {
		t.Fatalf("only %d built-in scenarios registered", len(all))
	}
	for _, s := range all {
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
		if _, ok := ScenarioByName(s.Name); !ok {
			t.Errorf("scenario %q not retrievable by name", s.Name)
		}
	}
}

// TestRegisteredScenariosAllRun smoke-runs every registered scenario at
// reduced scale: each must compile and simulate without protocol
// errors. This is the in-repo version of the CI smoke gate.
func TestRegisteredScenariosAllRun(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if raceEnabled && s.Network.Links > 4096 {
				// The 10⁵/10⁶-link scale entries outgrow small hosts under
				// the race detector; sinr-grid-4k keeps the indexed path
				// in the race run.
				t.Skipf("skipping %d-link scale scenario under the race detector", s.Network.Links)
			}
			s.Sim.Slots = 2_000
			c, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if c.Protocol == nil || c.Process == nil || c.Model == nil || c.Graph == nil {
				t.Fatal("incomplete compilation")
			}
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.ProtocolErrors != 0 {
				t.Fatalf("%d protocol errors", res.ProtocolErrors)
			}
			if res.Injected == 0 {
				t.Fatal("nothing injected")
			}
		})
	}
}

func TestScenarioRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc, _ := ScenarioByName("line-stochastic")
	res, err := sc.Run(ctx)
	if err == nil {
		t.Fatal("cancelled scenario run returned no error")
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if res.Slots != 0 {
		t.Errorf("pre-cancelled run executed %d slots", res.Slots)
	}
}
