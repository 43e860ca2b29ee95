package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestDigestRelativeAccuracy(t *testing.T) {
	d := NewDigest(0.01)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		x := math.Exp(rng.NormFloat64()*2) + 1 // heavy-tailed latencies
		vals = append(vals, x)
		d.Add(x)
	}
	sortFloats(vals)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		truth := vals[idx]
		got := d.Quantile(q)
		if rel := math.Abs(got-truth) / truth; rel > 0.02 {
			t.Errorf("q=%v: got %v, truth %v (rel err %v)", q, got, truth, rel)
		}
	}
	if d.N() != 20000 {
		t.Fatalf("n=%d", d.N())
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestDigestJSONRoundTrip(t *testing.T) {
	d := NewDigest(0.01)
	for _, x := range []float64{0, 1, 1, 2.5, 300, 1e6} {
		d.Add(x)
	}
	enc, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Digest
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	enc2, _ := json.Marshal(&back)
	if string(enc) != string(enc2) {
		t.Fatalf("round trip drifted:\n %s\n %s", enc, enc2)
	}
	if back.N() != d.N() || back.Quantile(0.5) != d.Quantile(0.5) || back.Max() != d.Max() {
		t.Fatal("restored digest differs")
	}
}

func TestDigestEmpty(t *testing.T) {
	d := NewDigest(0)
	if d.Quantile(0.5) != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty digest should report zeros")
	}
}

func TestSeriesThin(t *testing.T) {
	var s Series
	for i := 0; i < 11; i++ {
		s.Append(float64(i*10), float64(i))
	}
	s.Thin()
	if s.Len() != 6 {
		t.Fatalf("len=%d", s.Len())
	}
	for i := 0; i < 6; i++ {
		if s.T[i] != float64(i*20) || s.V[i] != float64(i*2) {
			t.Fatalf("sample %d: (%v,%v)", i, s.T[i], s.V[i])
		}
	}
}
