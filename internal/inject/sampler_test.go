package inject

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/randx"
)

// chiSquareBound is an upper quantile of the chi-square distribution
// with df degrees of freedom, z standard deviations out (Wilson–Hilferty).
// z = 5 puts a false alarm near 3e-7; the seeds are fixed anyway.
func chiSquareBound(df int) float64 {
	const z = 5
	k := float64(df)
	c := 2 / (9 * k)
	return k * math.Pow(1-c+z*math.Sqrt(c), 3)
}

// TestStochasticExactLaw checks the sampler against the model's law:
// per slot, generator g fires choice c with probability P_c and stays
// silent otherwise. Each generator's choice-and-silence counts over many
// slots are a multinomial, tested jointly by chi-square; the totals span
// several power-of-two classes, heterogeneous within a class, with
// q = 1, q = 0.999, q = 1e-4 and the catch-all class's 1e-300 at the
// edges.
func TestStochasticExactLaw(t *testing.T) {
	probs := [][]float64{
		{1}, {0.999}, {0.9}, {0.6}, {0.5, 0, 0.25},
		{0.3}, {0.26}, {0.2, 0.1, 0.05},
		{0.1}, {0.07}, {0.02, 0.015}, {1e-4}, {1e-300}, {0},
	}
	var gens []Generator
	link := 0
	for _, ps := range probs {
		var g Generator
		for _, p := range ps {
			g.Choices = append(g.Choices, PathChoice{Path: netgraph.Path{netgraph.LinkID(link)}, P: p})
			link++
		}
		gens = append(gens, g)
	}
	s, err := NewStochastic(interference.Identity{Links: link}, gens)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 200_000
	counts := make([]int, link) // per link: per (generator, choice)
	rng := rand.New(rand.NewSource(7))
	for slot := int64(0); slot < slots; slot++ {
		fired := map[int]bool{}
		for _, pkt := range s.Step(slot, rng) {
			counts[pkt.Path[0]]++
			fired[int(pkt.Path[0])] = true
		}
		// At most one packet per generator per slot.
		first := 0
		for gi, g := range gens {
			n := 0
			for c := range g.Choices {
				if fired[first+c] {
					n++
				}
			}
			if n > 1 {
				t.Fatalf("slot %d: generator %d injected %d packets", slot, gi, n)
			}
			first += len(g.Choices)
		}
	}

	stat, df := 0.0, 0
	first := 0
	for gi, g := range gens {
		silent, q, cells := slots, 0.0, 0
		for c, ch := range g.Choices {
			got := counts[first+c]
			silent -= got
			q += ch.P
			if ch.P == 0 {
				if got != 0 {
					t.Errorf("generator %d choice %d has P=0 but fired %d times", gi, c, got)
				}
				continue
			}
			want := slots * ch.P
			stat += (float64(got) - want) * (float64(got) - want) / want
			cells++
		}
		first += len(g.Choices)
		if q >= 1 {
			if silent != 0 {
				t.Errorf("generator %d has q=1 but stayed silent in %d slots", gi, silent)
			}
		} else {
			want := slots * (1 - q)
			stat += (float64(silent) - want) * (float64(silent) - want) / want
			cells++
		}
		if cells > 0 {
			df += cells - 1
		}
	}
	if bound := chiSquareBound(df); stat > bound {
		t.Fatalf("chi-square %.1f over %d df exceeds %.1f: counts %v", stat, df, bound, counts)
	}
}

// TestStochasticGeometricInterArrivals checks one generator's gaps
// between injections against Geometric(q): P(gap = k) = (1-q)^(k-1)·q.
// The generator shares its class with a larger and a smaller one, so
// its packets come through both the skip walk and the thinning draw.
func TestStochasticGeometricInterArrivals(t *testing.T) {
	const q = 0.05
	gens := singleHopGens(3, q)
	gens[0].Choices[0].P = 0.06
	gens[2].Choices[0].P = 0.04
	s, err := NewStochastic(interference.Identity{Links: 3}, gens)
	if err != nil {
		t.Fatal(err)
	}
	const kmax = 60 // gaps above kmax share one tail bin
	bins := make([]int, kmax+1)
	rng := rand.New(rand.NewSource(8))
	last := int64(-1)
	for slot := int64(0); slot < 200_000; slot++ {
		for _, pkt := range s.Step(slot, rng) {
			if pkt.Path[0] != 1 {
				continue
			}
			if last >= 0 {
				bins[min(slot-last, kmax+1)-1]++
			}
			last = slot
		}
	}
	gaps := 0
	for _, n := range bins {
		gaps += n
	}
	stat := 0.0
	for i, got := range bins {
		p := math.Pow(1-q, float64(i)) * q // gap i+1
		if i == kmax {
			p = math.Pow(1-q, kmax) // gap > kmax
		}
		want := float64(gaps) * p
		stat += (float64(got) - want) * (float64(got) - want) / want
	}
	if bound := chiSquareBound(kmax); stat > bound {
		t.Fatalf("inter-arrival chi-square %.1f over %d df exceeds %.1f: %v", stat, kmax, bound, bins)
	}
}

// TestStochasticDrawsScaleWithPackets is the machine-independent
// complexity guard: a slot's RNG draws stay within a constant factor of
// classes + packets, however many generators are silent. One uniform per
// generator per slot would be 32768 draws a slot here, against about 111
// packets.
func TestStochasticDrawsScaleWithPackets(t *testing.T) {
	const links, slots = 32768, 200
	s, err := NewStochastic(interference.Identity{Links: links}, singleHopGens(links, 0.0034))
	if err != nil {
		t.Fatal(err)
	}
	src := randx.NewCounting(9)
	rng := rand.New(src)
	packets := 0
	for slot := int64(0); slot < slots; slot++ {
		packets += len(s.Step(slot, rng))
	}
	classes := len(s.classes)
	if bound := 3 * (classes*slots + packets); src.Draws() > uint64(bound) {
		t.Fatalf("%d draws over %d slots for %d packets in %d classes, want at most %d",
			src.Draws(), slots, packets, classes, bound)
	}
}

// TestStochasticStepZeroAllocs pins the steady state: once the result
// buffer has grown, a slot allocates nothing.
func TestStochasticStepZeroAllocs(t *testing.T) {
	s, err := NewStochastic(interference.Identity{Links: 4096}, singleHopGens(4096, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	slot := int64(0)
	for ; slot < 2000; slot++ {
		s.Step(slot, rng)
	}
	if allocs := testing.AllocsPerRun(500, func() { s.Step(slot, rng); slot++ }); allocs != 0 {
		t.Fatalf("Step allocates %v per slot in steady state", allocs)
	}
}

// TestGeneratorTotals covers the edges of a generator's total
// probability: NaN is rejected, a total within rounding slack above 1
// is accepted and sampled as q = 1, and q = 1 and q = 0 inject in every
// slot and in none.
func TestGeneratorTotals(t *testing.T) {
	cases := []struct {
		name    string
		ps      []float64
		wantErr bool
		perSlot int // packets per slot when accepted
	}{
		{"NaN", []float64{math.NaN()}, true, 0},
		{"NaN beside a valid choice", []float64{0.5, math.NaN()}, true, 0},
		{"within slack above 1", []float64{1 + 1e-13}, false, 1},
		{"split within slack above 1", []float64{0.5, 0.5 + 1e-13}, false, 1},
		{"q=1", []float64{1}, false, 1},
		{"q=0", []float64{0}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Generator
			for i, p := range tc.ps {
				g.Choices = append(g.Choices, PathChoice{Path: netgraph.Path{netgraph.LinkID(i)}, P: p})
			}
			s, err := NewStochastic(interference.Identity{Links: len(tc.ps)}, []Generator{g})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted with rate %v", s.Rate())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for slot := int64(0); slot < 1000; slot++ {
				if n := len(s.Step(slot, rng)); n != tc.perSlot {
					t.Fatalf("slot %d injected %d packets, want %d", slot, n, tc.perSlot)
				}
			}
		})
	}
	gens := singleHopGens(2, 0.25)
	if _, err := StochasticAtRate(interference.Identity{Links: 2}, gens, math.NaN()); err == nil {
		t.Error("NaN rate accepted")
	}
}

// TestStochasticAtRateMatchesScaleGenerators pins StochasticAtRate, which
// scales into the sampler's table directly, to its reference: the
// process NewStochastic builds over the generators with every choice
// probability multiplied by the same factor. Rates and every packet
// must match bit for bit.
func TestStochasticAtRateMatchesScaleGenerators(t *testing.T) {
	m := interference.AllOnes{Links: 5}
	gens := []Generator{
		{Choices: []PathChoice{{Path: netgraph.Path{0}, P: 0.1}, {Path: netgraph.Path{1, 2}, P: 0.05}}},
		{Choices: []PathChoice{{Path: netgraph.Path{3}, P: 0.02}}},
		{Choices: []PathChoice{{Path: netgraph.Path{4}, P: 0}}},
		{Choices: []PathChoice{{Path: netgraph.Path{2}, P: 0.3}}},
	}
	const lambda = 0.7
	got, err := StochasticAtRate(m, gens, lambda)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	factor := lambda / base.Rate()
	scaled := make([]Generator, len(gens))
	for i, g := range gens {
		for _, c := range g.Choices {
			scaled[i].Choices = append(scaled[i].Choices, PathChoice{Path: c.Path, P: c.P * factor})
		}
	}
	want, err := NewStochastic(m, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rate() != want.Rate() || got.PacketRate() != want.PacketRate() {
		t.Fatalf("rates %v/%v, want %v/%v", got.Rate(), got.PacketRate(), want.Rate(), want.PacketRate())
	}
	r1, r2 := rand.New(rand.NewSource(12)), rand.New(rand.NewSource(12))
	for slot := int64(0); slot < 2000; slot++ {
		a, b := got.Step(slot, r1), want.Step(slot, r2)
		if len(a) != len(b) {
			t.Fatalf("slot %d: %d packets, want %d", slot, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || &a[i].Path[0] != &b[i].Path[0] {
				t.Fatalf("slot %d packet %d: %+v, want %+v", slot, i, a[i], b[i])
			}
		}
	}
}
