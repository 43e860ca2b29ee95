// Protocol checkpointing. The protocol satisfies sim's Checkpointable
// and CheckpointAligner interfaces structurally (sim defines them; core
// implements the same method set).
//
// Mid-frame, the protocol holds unserializable state: a live
// static.Execution with algorithm-internal scratch, emission records,
// and phase caches. At a frame boundary all of that is dead — Slot at
// offset 0 rebuilds the execution from the live packet list — so the
// semantic state reduces to: the undelivered packets (delivered ones
// are compacted at the next main-phase start and referenced by nothing
// that survives the boundary), the failure buffers (always a subset of
// the live list, in failure order), the private RNG's stream position,
// and the frame counters. CheckpointAligned therefore admits only
// frame-boundary slots, and the engine defers due checkpoints to them.
//
// The frame-statistics ring (RecentFrames) is deliberately not
// serialized: it is introspection-only and feeds no Result field, so a
// resumed run reports only frames executed since the resume.
package core

import (
	"encoding/json"
	"fmt"

	"dynsched/internal/netgraph"
)

// pktRec is one live packet's serialized protocol state.
type pktRec struct {
	ID            int64         `json:"id"`
	Path          netgraph.Path `json:"path"`
	Hop           int           `json:"hop"`
	Failed        bool          `json:"failed,omitempty"`
	FailSlot      int64         `json:"failSlot,omitempty"`
	ActivateFrame int64         `json:"activateFrame"`
}

// protoState is the protocol's serialized frame-boundary state.
type protoState struct {
	FramesRun        int64         `json:"framesRun"`
	Failures         int64         `json:"failures"`
	CleanupDelivered int64         `json:"cleanupDelivered"`
	RNGDraws         uint64        `json:"rngDraws"`
	Cur              FrameStat     `json:"cur"`
	Live             []pktRec      `json:"live"`
	FailBuf          map[int][]int `json:"failBuf,omitempty"` // link → indices into Live, failure order
}

// CheckpointAligned implements sim.CheckpointAligner: the protocol can
// only serialize with `next` at a frame boundary, where no execution
// state is live.
func (p *Protocol) CheckpointAligned(next int64) bool {
	return next%int64(p.sizing.T) == 0
}

// CheckpointState implements sim.Checkpointable. Must only be called
// at a slot admitted by CheckpointAligned.
func (p *Protocol) CheckpointState() ([]byte, error) {
	st := protoState{
		FramesRun:        p.FramesRun,
		Failures:         p.Failures,
		CleanupDelivered: p.CleanupDelivered,
		RNGDraws:         p.rngSrc.Draws(),
		Cur:              p.curFrame,
	}
	// Serialize undelivered packets only: delivered ones are awaiting
	// compaction and nothing that survives a frame boundary refers to
	// them. Their index in the serialized list keys the failure
	// buffers.
	index := make(map[*pkt]int, len(p.live))
	for _, pk := range p.live {
		if pk.delivered {
			continue
		}
		index[pk] = len(st.Live)
		st.Live = append(st.Live, pktRec{
			ID: pk.id, Path: pk.path, Hop: pk.hop,
			Failed: pk.failed, FailSlot: pk.failSlot, ActivateFrame: pk.activateFrame,
		})
	}
	for e, buf := range p.failBuf {
		if len(buf) == 0 {
			continue
		}
		if st.FailBuf == nil {
			st.FailBuf = make(map[int][]int)
		}
		idxs := make([]int, len(buf))
		for i, pk := range buf {
			k, ok := index[pk]
			if !ok {
				return nil, fmt.Errorf("core: failure buffer of link %d references a packet missing from the live list", e)
			}
			idxs[i] = k
		}
		st.FailBuf[e] = idxs
	}
	return json.Marshal(st)
}

// RestoreState implements sim.Checkpointable: called on a freshly
// constructed Protocol with an identical Config, it rebuilds the
// frame-boundary state so the next Slot call continues bit-identically.
func (p *Protocol) RestoreState(data []byte) error {
	var st protoState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(p.live) != 0 || p.FramesRun != 0 {
		return fmt.Errorf("core: RestoreState requires a fresh protocol")
	}
	if err := p.rngSrc.SeekTo(st.RNGDraws); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.FramesRun = st.FramesRun
	p.Failures = st.Failures
	p.CleanupDelivered = st.CleanupDelivered
	p.curFrame = st.Cur
	p.live = make([]*pkt, len(st.Live))
	for i, rec := range st.Live {
		p.live[i] = &pkt{
			id: rec.ID, path: rec.Path, hop: rec.Hop,
			failed: rec.Failed, failSlot: rec.FailSlot, activateFrame: rec.ActivateFrame,
		}
	}
	p.queueLen = len(p.live)
	for e, idxs := range st.FailBuf {
		if e < 0 || e >= len(p.failBuf) {
			return fmt.Errorf("core: checkpoint failure buffer for link %d, protocol has %d links", e, len(p.failBuf))
		}
		buf := make([]*pkt, len(idxs))
		for i, k := range idxs {
			if k < 0 || k >= len(p.live) {
				return fmt.Errorf("core: checkpoint failure buffer index %d out of range", k)
			}
			buf[i] = p.live[k]
		}
		p.failBuf[e] = buf
	}
	return nil
}
