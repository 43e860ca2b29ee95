package dynsched

import (
	"context"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"dynsched/internal/netgraph"
	"dynsched/internal/sinr"
)

// runScale drives the full dynamic protocol over an m-link random SINR
// instance and asserts stability plus packet conservation. The square
// scales with √m so density — and therefore per-link interference — is
// comparable across sizes; at m=128 the instance is bit-identical to
// the original fixed-size scale test. opt selects the interference
// backing; the zero value is the seed configuration (dense/CSR table).
func runScale(t *testing.T, m int, lambda float64, frames int64, opt sinr.Options) {
	t.Helper()
	g := NewGraph(2 * m)
	pts := make([]Point, 2*m)
	rng := newRand(31)
	side := 120 * math.Sqrt(float64(m)/128)
	for i := 0; i < m; i++ {
		s := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		pts[2*i] = s
		pts[2*i+1] = Point{X: s.X + 1 + rng.Float64()*3, Y: s.Y}
	}
	if err := g.SetPositions(pts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		g.MustAddLink(NodeID(2*i), NodeID(2*i+1))
	}
	prm := DefaultSINRParams()
	powers, err := SINRPowers(g, prm, PowerLinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sinr.NewFixedPowerOpts(g, prm, powers, WeightAffectance, opt)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := TrafficSingleHop(model, lambda)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewProtocol(ProtocolConfig{
		Model: model, Alg: Spread{}, M: m, Lambda: lambda, Eps: 0.25, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := frames * int64(proto.Sizing().T)
	res, err := Simulate(SimConfig{Slots: slots, Seed: 33}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors at scale", res.ProtocolErrors)
	}
	if !res.Verdict.Stable {
		t.Errorf("scale run unstable: %+v", res.Verdict)
	}
	if res.Delivered+res.InFlight != res.Injected {
		t.Fatal("conservation violated at scale")
	}
	t.Logf("scale: %d links (%s backing), %d slots, %d packets, queue mean %.0f",
		m, model.Table().Backing, res.Slots, res.Injected, res.Queue.MeanV())
}

// TestScale is the sized-up integration check: a 128-link SINR network
// under the full dynamic protocol for dozens of frames. It guards
// against accidental quadratic blow-ups in the slot path — the run
// should take seconds, not minutes. Skipped in -short mode.
func TestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in short mode")
	}
	runScale(t, 128, 0.06, 25, sinr.Options{})
}

// TestScaleIndexed runs the same protocol tier through the spatially
// indexed backing at ε=0, which must behave identically to the table
// path, and at a small ε>0 envelope, which must stay stable. Skipped in
// -short mode.
func TestScaleIndexed(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in short mode")
	}
	t.Run("eps=0", func(t *testing.T) {
		runScale(t, 128, 0.06, 25, sinr.Options{Backing: sinr.BackIndexed})
	})
	t.Run("eps=0.02", func(t *testing.T) {
		runScale(t, 128, 0.06, 25, sinr.Options{Backing: sinr.BackIndexed, FarFloor: 0.02})
	})
}

// TestScaleSmoke100k is the fast scale smoke: build a 10⁵-link indexed
// model and resolve a batch of 4096-transmission slots inside a wall-
// clock and heap budget. Quick enough for -short runs; skipped under
// the race detector, whose constant-factor slowdown makes the budget
// meaningless.
func TestScaleSmoke100k(t *testing.T) {
	if raceEnabled {
		t.Skip("100k smoke skipped under the race detector")
	}
	const n, k, slots = 100_000, 4096, 50
	start := time.Now()
	rng := newRand(5)
	g := netgraph.RandomPairs(rng, n, 10*math.Sqrt(float64(n)), 1, 4)
	prm := sinr.DefaultParams()
	powers, err := sinr.Powers(g, prm, sinr.PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm.Noise = sinr.MaxNoise(g, prm, powers, 0.5)
	m, err := sinr.NewFixedPowerOpts(g, prm, powers, sinr.WeightMonotone,
		sinr.Options{Backing: sinr.BackIndexed, FarFloor: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	resolve, _ := m.NewResolver(0)
	succ := 0
	for s := 0; s < slots; s++ {
		tx := rng.Perm(n)[:k]
		for _, ok := range resolve(tx) {
			if ok {
				succ++
			}
		}
	}
	if succ == 0 {
		t.Fatal("no transmission succeeded across the smoke slots")
	}
	elapsed := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("100k smoke: %d slots × %d tx in %v, %d successes, heap %d MB",
		slots, k, elapsed.Round(time.Millisecond), succ, ms.HeapAlloc>>20)
	// Generous envelopes: the point is catching a quadratic blow-up (an
	// O(n·tx) slot path would take minutes and a dense table ~80 GB),
	// not benchmarking the runner.
	if elapsed > 2*time.Minute {
		t.Errorf("100k smoke took %v, budget 2m — slot path no longer scales", elapsed)
	}
	if ms.HeapAlloc > 2<<30 {
		t.Errorf("100k smoke heap %d MB, budget 2 GB — model no longer sparse", ms.HeapAlloc>>20)
	}
}

// TestScaleLarge is the opt-in heavy tier: full protocol simulations of
// the registered sinr-grid scale scenarios. Set DYNSCHED_SCALE=1 for
// the 10⁵-link run, DYNSCHED_SCALE=full to add the 10⁶-link run.
func TestScaleLarge(t *testing.T) {
	tier := os.Getenv("DYNSCHED_SCALE")
	if tier == "" {
		t.Skip("set DYNSCHED_SCALE=1 (or =full for 10⁶ links) to run the large protocol tier")
	}
	names := []string{"sinr-grid-100k"}
	if tier == "full" {
		names = append(names, "sinr-grid-1m")
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			s, ok := ScenarioByName(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.ProtocolErrors != 0 {
				t.Fatalf("%d protocol errors", res.ProtocolErrors)
			}
			if res.Delivered+res.InFlight != res.Injected {
				t.Fatal("conservation violated")
			}
			t.Logf("%s: %d slots, %d packets injected, %d delivered",
				name, res.Slots, res.Injected, res.Delivered)
		})
	}
}
