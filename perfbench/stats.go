package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail read from fewer points is one slow request, not a
// tail.
const minBeyond = 10

// tailLadder is the set of percentiles a workload may fix as its tail,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5}

// qualifies reports whether percentile q of n samples has at least
// minBeyond samples beyond it.
func qualifies(q float64, n int) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// highestTail returns the highest ladder percentile that qualifies at n
// samples, or 0 when not even the median does.
func highestTail(n int) float64 {
	for _, q := range tailLadder {
		if qualifies(q, n) {
			return q
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified). It
// returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedRate is the median of per-window completion rates: the
// completion times (sorted ascending, all after start) are cut into
// consecutive windows of k completions each, the first window opening
// at start and every later one at the previous window's last
// completion, and each window's rate is k over its length in seconds.
// A trailing partial window is dropped. Host speed drifts within a
// process, so the median of many windows is steadier than
// total/elapsed. It returns NaN when no full window exists.
func windowedRate(start time.Time, done []time.Time, k int) float64 {
	if k < 1 {
		k = 1
	}
	var rates []float64
	open := start
	for end := k - 1; end < len(done); end += k {
		span := done[end].Sub(open).Seconds()
		if span > 0 {
			rates = append(rates, float64(k)/span)
		}
		open = done[end]
	}
	return median(rates)
}

// span is one timed interval of the trace: a call into a layer made
// from the benchmark, linked to the span that caused it. Spans of one
// request share Req.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 = root
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that its children cover.
// Overlapping children (parallel plan units) count once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
