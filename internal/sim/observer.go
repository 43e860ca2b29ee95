// The observer pipeline: metrics are not baked into the engine loop but
// collected by Observer values the engine notifies at each lifecycle
// point. The stock observers below reproduce the classic latency, queue
// and per-link metrics and write them into Result on OnEnd; callers can
// attach custom observers (per-window adversary accounting, frame
// occupancy traces, …) to Run without touching the engine.
package sim

import (
	"encoding/json"
	"fmt"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/stats"
)

// SlotView is the snapshot of one resolved slot handed to observers.
// The Tx and Success slices are only valid for the duration of the
// OnSlot call — the engine reuses them across slots; copy what you keep.
type SlotView struct {
	// Tx holds the validated transmissions the protocol attempted this
	// slot; Success[i] reports whether Tx[i] went through.
	Tx      []Transmission
	Success []bool
	// InFlight is the number of packets still queued after this slot's
	// deliveries.
	InFlight int
}

// Delivery describes one packet reaching the end of its path.
type Delivery struct {
	PacketID int64
	Link     int   // the final link of the packet's path
	Injected int64 // the slot the packet was injected at
	PathLen  int   // hops travelled end to end
}

// Observer receives simulation lifecycle events. Implementations are
// driven from the engine goroutine only, so they need no locking; a
// replicated run gets a fresh observer per replication.
type Observer interface {
	// OnInject is called after the protocol received the slot's injected
	// packets (only on slots that inject at least one). The pkts slice
	// is only valid for the duration of the call — injection processes
	// reuse it across slots (see inject.Process.Step); copy any packets
	// you keep. The Path slices inside are stable and may be retained.
	OnInject(t int64, pkts []inject.Packet)
	// OnSlot is called at the end of every slot, after feedback.
	OnSlot(t int64, v SlotView)
	// OnDeliver is called once per packet delivered, before OnSlot.
	OnDeliver(t int64, d Delivery)
	// OnEnd is called once when the run finishes (or is cancelled), in
	// attachment order — stock observers have filled Result's metric
	// fields by the time custom observers run.
	OnEnd(r *Result)
}

// ResolveObserver is an optional Observer extension notified once per
// run, before the first slot, with a function reporting the run's own
// slot-resolver accounting (interference.Model.NewResolver): its
// intra-slot worker count and the grid work of the slots resolved so
// far, exact even when other runs share the model. Observers use it to
// surface resolver statistics without touching the hot loop; call it
// from the engine goroutine (OnSlot, OnEnd).
type ResolveObserver interface {
	OnResolve(stats func() interference.ResolveStats)
}

// BaseObserver is a no-op Observer for embedding, so custom observers
// only implement the events they care about.
type BaseObserver struct{}

// OnInject implements Observer.
func (BaseObserver) OnInject(int64, []inject.Packet) {}

// OnSlot implements Observer.
func (BaseObserver) OnSlot(int64, SlotView) {}

// OnDeliver implements Observer.
func (BaseObserver) OnDeliver(int64, Delivery) {}

// OnEnd implements Observer.
func (BaseObserver) OnEnd(*Result) {}

// latencyObserver reproduces the packet-latency metrics — all of them
// streaming aggregates with bounded memory: a histogram of end-to-end
// latencies, a mergeable quantile digest of the same values, and a
// per-hop latency summary, excluding deliveries during the warm-up
// period.
type latencyObserver struct {
	BaseObserver
	warmupEnd int64
	hist      *stats.Histogram
	digest    *stats.Digest
	hop       stats.Summary
}

func (o *latencyObserver) OnDeliver(t int64, d Delivery) {
	if t < o.warmupEnd {
		return
	}
	lat := float64(t - d.Injected + 1)
	o.hist.Add(lat)
	o.digest.Add(lat)
	o.hop.Add(lat / float64(d.PathLen))
}

func (o *latencyObserver) OnEnd(r *Result) {
	r.Latency = o.hist
	r.LatencyDigest = o.digest
	r.HopLatency = o.hop
}

type latencyState struct {
	Hist   *stats.Histogram `json:"hist"`
	Digest *stats.Digest    `json:"digest"`
	Hop    stats.Summary    `json:"hop"`
}

// CheckpointState implements CheckpointableObserver.
func (o *latencyObserver) CheckpointState() ([]byte, error) {
	return json.Marshal(latencyState{Hist: o.hist, Digest: o.digest, Hop: o.hop})
}

// RestoreState implements CheckpointableObserver.
func (o *latencyObserver) RestoreState(data []byte) error {
	var st latencyState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.Hist == nil || st.Digest == nil {
		return fmt.Errorf("sim: latency checkpoint missing histogram or digest")
	}
	o.hist, o.digest, o.hop = st.Hist, st.Digest, st.Hop
	return nil
}

// maxQueueSamples bounds the queue series: when the series reaches the
// cap it is thinned to half and the sampling stride doubles, so a
// long-horizon run with a fine SampleEvery holds a bounded, evenly
// spaced series instead of an unbounded one. Default sampling
// (Slots/512) stays far under the cap, so short runs are unaffected —
// and byte-identical to the pre-cap engine.
const maxQueueSamples = 2048

// queueObserver samples the in-flight packet count every
// `sample`·`stride` slots and always includes the final executed slot,
// so the series never ends mid-run; the stability verdict is fitted
// over the sampled series.
type queueObserver struct {
	BaseObserver
	sample int64
	stride int64
	series stats.Series
	lastT  int64
	lastV  float64
	seen   bool
}

// newQueueObserver sizes the sample series for the run up front —
// slots/sample points, capped at the thinning bound — so steady-state
// sampling appends without reallocation.
func newQueueObserver(slots, sample int64) *queueObserver {
	o := &queueObserver{sample: sample, stride: 1}
	expect := slots/sample + 2
	if expect > maxQueueSamples {
		expect = maxQueueSamples
	}
	o.series.Grow(int(expect))
	return o
}

func (o *queueObserver) OnSlot(t int64, v SlotView) {
	o.lastT, o.lastV, o.seen = t, float64(v.InFlight), true
	if t%(o.sample*o.stride) == 0 {
		o.series.Append(float64(t), float64(v.InFlight))
		if o.series.Len() >= maxQueueSamples {
			o.series.Thin()
			o.stride *= 2
		}
	}
}

func (o *queueObserver) OnEnd(r *Result) {
	if o.seen && o.lastT%(o.sample*o.stride) != 0 {
		o.series.Append(float64(o.lastT), o.lastV)
	}
	r.Queue = o.series
	r.Verdict = o.series.Stability()
}

type queueState struct {
	Series stats.Series `json:"series"`
	Stride int64        `json:"stride"`
	LastT  int64        `json:"lastT"`
	LastV  float64      `json:"lastV"`
	Seen   bool         `json:"seen"`
}

// CheckpointState implements CheckpointableObserver.
func (o *queueObserver) CheckpointState() ([]byte, error) {
	return json.Marshal(queueState{Series: o.series, Stride: o.stride, LastT: o.lastT, LastV: o.lastV, Seen: o.seen})
}

// RestoreState implements CheckpointableObserver.
func (o *queueObserver) RestoreState(data []byte) error {
	var st queueState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	o.series, o.lastT, o.lastV, o.seen = st.Series, st.LastT, st.LastV, st.Seen
	o.stride = st.Stride
	if o.stride < 1 {
		o.stride = 1
	}
	return nil
}

// linkObserver accumulates per-link attempt and service counts, the
// inputs of LinkUtilization and FairnessIndex.
type linkObserver struct {
	BaseObserver
	served   []int64
	attempts []int64
}

func (o *linkObserver) OnSlot(t int64, v SlotView) {
	for i, tx := range v.Tx {
		o.attempts[tx.Link]++
		if v.Success[i] {
			o.served[tx.Link]++
		}
	}
}

func (o *linkObserver) OnEnd(r *Result) {
	r.PerLinkServed = o.served
	r.PerLinkAttempts = o.attempts
}

type linkState struct {
	Served   []int64 `json:"served"`
	Attempts []int64 `json:"attempts"`
}

// CheckpointState implements CheckpointableObserver.
func (o *linkObserver) CheckpointState() ([]byte, error) {
	return json.Marshal(linkState{Served: o.served, Attempts: o.attempts})
}

// RestoreState implements CheckpointableObserver.
func (o *linkObserver) RestoreState(data []byte) error {
	var st linkState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Served) != len(o.served) || len(st.Attempts) != len(o.attempts) {
		return fmt.Errorf("sim: link checkpoint for %d links, model has %d", len(st.Served), len(o.served))
	}
	o.served, o.attempts = st.Served, st.Attempts
	return nil
}
