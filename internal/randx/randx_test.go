package randx

import (
	"math/rand"
	"testing"
)

// drawMix consumes a representative mix of rand.Rand entry points —
// every derived-draw path the engine, protocol, and models use — and
// folds the values into a comparable fingerprint.
func drawMix(r *rand.Rand, n int) []float64 {
	out := make([]float64, 0, 4*n)
	for i := 0; i < n; i++ {
		out = append(out, float64(r.Int63()%1000))
		out = append(out, r.Float64())
		out = append(out, float64(r.Intn(97)))
		out = append(out, r.NormFloat64())
	}
	return out
}

// The counting wrapper must not perturb the stream: a rand.Rand on a
// CountingSource produces exactly the values of one on the bare
// source. Every pinned bit-identity test in the repo depends on this.
func TestCountingSourcePreservesStream(t *testing.T) {
	bare := rand.New(rand.NewSource(42))
	counted := rand.New(NewCounting(42))
	want := drawMix(bare, 500)
	got := drawMix(counted, 500)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d: counted %v != bare %v", i, got[i], want[i])
		}
	}
}

// Resuming from (seed, draws) must land at the exact stream position:
// fast-forwarding a fresh source by the recorded draw count yields the
// same continuation as the original uninterrupted source.
func TestSeekToResumesStream(t *testing.T) {
	src := NewCounting(7)
	r := rand.New(src)
	drawMix(r, 313) // arbitrary, odd on purpose
	mark := src.Draws()
	want := drawMix(r, 100)

	resumed := NewCounting(7)
	if err := resumed.SeekTo(mark); err != nil {
		t.Fatalf("SeekTo: %v", err)
	}
	got := drawMix(rand.New(resumed), 100)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed draw %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestSeekBackwardsRejected(t *testing.T) {
	src := NewCounting(1)
	src.Skip(10)
	if err := src.SeekTo(5); err == nil {
		t.Fatal("expected error seeking backwards")
	}
	if err := src.SeekTo(10); err != nil {
		t.Fatalf("seek to current position should be a no-op: %v", err)
	}
}

func TestSeedResetsDraws(t *testing.T) {
	src := NewCounting(3)
	rand.New(src).Float64()
	if src.Draws() == 0 {
		t.Fatal("draws not counted")
	}
	src.Seed(9)
	if src.Draws() != 0 {
		t.Fatalf("reseed: draws=%d", src.Draws())
	}
}
