// Injection-process checkpointing. The processes implement sim's
// Checkpointable interface structurally (sim is not imported): each
// serializes the state its future injections depend on, so a resumed
// simulation draws the exact packet sequence of an uninterrupted run.
//
// The stochastic process draws from the engine RNG (whose position the
// engine checkpoints itself) and restarts its geometric-skip walk every
// slot, so no sampler position carries across slots: its only private
// state is the ID counter. The pattern adversary is deterministic but plans a window
// ahead; its counters and not-yet-emitted pending packets serialize in
// full, so checkpoints need no window alignment. Traces are stateless
// replays.
package inject

import (
	"encoding/json"
	"fmt"

	"dynsched/internal/netgraph"
)

type stochasticState struct {
	NextID int64 `json:"nextID"`
}

// CheckpointState implements sim.Checkpointable.
func (s *Stochastic) CheckpointState() ([]byte, error) {
	return json.Marshal(stochasticState{NextID: s.nextID})
}

// RestoreState implements sim.Checkpointable.
func (s *Stochastic) RestoreState(data []byte) error {
	var st stochasticState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	s.nextID = st.NextID
	return nil
}

type pendingPacket struct {
	ID       int64         `json:"id"`
	Path     netgraph.Path `json:"path"`
	Injected int64         `json:"injected"`
}

type patternState struct {
	NextID    int64           `json:"nextID"`
	NextPath  int             `json:"nextPath"`
	Spent     float64         `json:"spent"`
	Windows   int64           `json:"windows"`
	WindowTop int64           `json:"windowTop"`
	Pending   []pendingPacket `json:"pending,omitempty"`
}

// CheckpointState implements sim.Checkpointable.
func (p *Pattern) CheckpointState() ([]byte, error) {
	st := patternState{
		NextID: p.nextID, NextPath: p.nextPath, Spent: p.spent,
		Windows: p.windows, WindowTop: p.windowTop,
	}
	for _, pkt := range p.pending {
		st.Pending = append(st.Pending, pendingPacket{ID: pkt.ID, Path: pkt.Path, Injected: pkt.Injected})
	}
	return json.Marshal(st)
}

// RestoreState implements sim.Checkpointable.
func (p *Pattern) RestoreState(data []byte) error {
	var st patternState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.NextPath < 0 || st.NextPath >= len(p.paths) {
		return fmt.Errorf("inject: checkpoint path index %d out of range", st.NextPath)
	}
	p.nextID, p.nextPath, p.spent = st.NextID, st.NextPath, st.Spent
	p.windows, p.windowTop = st.Windows, st.WindowTop
	p.pending = p.pending[:0]
	for _, pkt := range st.Pending {
		p.pending = append(p.pending, Packet{ID: pkt.ID, Path: pkt.Path, Injected: pkt.Injected})
	}
	return nil
}

// CheckpointState implements sim.Checkpointable: a trace is stateless
// between steps.
func (t *Trace) CheckpointState() ([]byte, error) { return []byte("{}"), nil }

// RestoreState implements sim.Checkpointable.
func (t *Trace) RestoreState(data []byte) error { return nil }
