// Engine checkpointing: a running simulation can serialize its full
// semantic state — RNG position, result counters, every in-flight
// packet, and the private state of the injection process, protocol,
// model, and observers — into a Checkpoint, and a fresh Run can resume
// from one, continuing the run bit-identically to an uninterrupted
// execution at the same seed. A billion-slot unit interrupted by a
// crash restarts from its last checkpoint instead of slot 0.
//
// RNG state is the linchpin: math/rand sources are not serializable,
// but position in the stream is (seed, draw count) — see
// internal/randx. Components follow the same idea or serialize their
// state directly via the Checkpointable interface, implemented
// structurally (sim is not imported) by internal/core, internal/inject
// and internal/interference.
//
// Not every slot is checkpointable: the dynamic protocol rebuilds its
// frame execution schedule at each frame start and holds unserializable
// mid-frame scratch state, so it implements CheckpointAligner and the
// engine defers a due checkpoint until the next frame boundary.
package sim

import (
	"encoding/json"
	"fmt"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/randx"
)

// Checkpointable is implemented by simulation components (injection
// processes, protocols, interference models) whose behaviour depends
// on accumulated state. CheckpointState serializes the component's
// semantic state; RestoreState, called on a freshly constructed
// component with an identical configuration, must bring it to the
// point where it continues bit-identically.
type Checkpointable interface {
	CheckpointState() ([]byte, error)
	RestoreState(data []byte) error
}

// CheckpointAligner is implemented by components that can only
// checkpoint at certain slots. CheckpointAligned reports whether a
// checkpoint may be taken when `next` is the next slot to execute
// (i.e. slots [0, next) are complete). The engine defers a due
// checkpoint until every aligner agrees.
type CheckpointAligner interface {
	CheckpointAligned(next int64) bool
}

// CheckpointableObserver is an Observer whose accumulated metrics can
// be checkpointed and restored. Observers that do not implement it are
// resumed with zero state — acceptable only for observers whose output
// does not feed Result (the stock metric observers all implement it).
type CheckpointableObserver interface {
	Observer
	Checkpointable
}

// CheckpointSpec configures checkpointing for a Run.
type CheckpointSpec struct {
	// Every requests a checkpoint each time this many slots complete
	// (deferred to the next aligned slot — see CheckpointAligner).
	// 0 disables capture.
	Every int64
	// Sink receives each captured checkpoint; an error aborts the run.
	// Called on the engine goroutine — keep it bounded (an fsync'd
	// file write is the intended use).
	Sink func(cp *Checkpoint) error
	// Resume, when non-nil, fast-forwards the run to the checkpoint's
	// slot before executing: slots [0, Resume.Slot) are not
	// re-simulated. The Config must be identical to the one that
	// produced the checkpoint.
	Resume *Checkpoint
}

// CheckpointPacket is one in-flight packet's serialized state. Path is
// the packet's route itself, shared with the running engine (and, on
// resume, retained by it): it is read-only.
type CheckpointPacket struct {
	ID       int64         `json:"id"`
	Injected int64         `json:"injected"`
	Hop      int           `json:"hop"`
	Path     netgraph.Path `json:"path"`
}

// Checkpoint is a full serialized engine state at a slot boundary.
type Checkpoint struct {
	// Slot is the number of completed slots; resume continues at this
	// slot.
	Slot int64 `json:"slot"`
	// Seed pins the config the checkpoint belongs to; resume under a
	// different seed is refused.
	Seed int64 `json:"seed"`
	// RNGDraws is the engine RNG's position in its stream.
	RNGDraws uint64 `json:"rngDraws"`

	Injected       int64 `json:"injected"`
	Delivered      int64 `json:"delivered"`
	ProtocolErrors int64 `json:"protocolErrors,omitempty"`
	AttemptedTx    int64 `json:"attemptedTx"`
	SuccessfulTx   int64 `json:"successfulTx"`

	// Packets are the in-flight packets, in arena order.
	Packets []CheckpointPacket `json:"packets"`

	// Process, Protocol and Model hold the components' serialized
	// private state (Model omitted for stateless models).
	Process  json.RawMessage `json:"process,omitempty"`
	Protocol json.RawMessage `json:"protocol,omitempty"`
	Model    json.RawMessage `json:"model,omitempty"`

	// Observers holds one entry per attached observer, in attachment
	// order; null entries mark observers without checkpoint support.
	Observers []json.RawMessage `json:"observers,omitempty"`
}

// SupportsCheckpoint reports whether a run built from these components
// can be checkpointed and resumed: the injection process and protocol
// must be Checkpointable, and a model that exposes readiness (the
// lossy wrapper, whose RNG must be draw-counted) must report ready.
// Stateless models need no support.
func SupportsCheckpoint(model interference.Model, proc inject.Process, proto Protocol) bool {
	if _, ok := proc.(Checkpointable); !ok {
		return false
	}
	if _, ok := proto.(Checkpointable); !ok {
		return false
	}
	if r, ok := model.(interface{ CheckpointReady() bool }); ok && !r.CheckpointReady() {
		return false
	}
	return true
}

// checkpointAligned reports whether every component that constrains
// checkpoint timing agrees that `next` is a valid boundary.
func checkpointAligned(next int64, model interference.Model, proc inject.Process, proto Protocol) bool {
	for _, c := range []any{proto, proc, model} {
		if a, ok := c.(CheckpointAligner); ok && !a.CheckpointAligned(next) {
			return false
		}
	}
	return true
}

// captureCheckpoint serializes the engine state with `next` slots
// completed.
func captureCheckpoint(next int64, cfg Config, src *randx.CountingSource, res *Result,
	arena *packetArena, model interference.Model, proc inject.Process, proto Protocol, obs []Observer) (*Checkpoint, error) {
	cp := &Checkpoint{
		Slot:           next,
		Seed:           cfg.Seed,
		RNGDraws:       src.Draws(),
		Injected:       res.Injected,
		Delivered:      res.Delivered,
		ProtocolErrors: res.ProtocolErrors,
		AttemptedTx:    res.AttemptedTx,
		SuccessfulTx:   res.SuccessfulTx,
	}
	cp.Packets = make([]CheckpointPacket, 0, arena.len())
	for i := range arena.slots {
		st := &arena.slots[i]
		if st.path == nil {
			continue
		}
		cp.Packets = append(cp.Packets, CheckpointPacket{
			ID: st.id, Injected: st.injected, Hop: st.hop, Path: st.path,
		})
	}
	var err error
	if cp.Process, err = componentState(proc, "injection process"); err != nil {
		return nil, err
	}
	if cp.Protocol, err = componentState(proto, "protocol"); err != nil {
		return nil, err
	}
	if c, ok := model.(Checkpointable); ok {
		if cp.Model, err = c.CheckpointState(); err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
	}
	cp.Observers = make([]json.RawMessage, len(obs))
	for i, o := range obs {
		if c, ok := o.(Checkpointable); ok {
			if cp.Observers[i], err = c.CheckpointState(); err != nil {
				return nil, fmt.Errorf("observer %d: %w", i, err)
			}
		}
	}
	return cp, nil
}

func componentState(v any, what string) (json.RawMessage, error) {
	c, ok := v.(Checkpointable)
	if !ok {
		return nil, fmt.Errorf("%s (%T) does not support checkpointing", what, v)
	}
	data, err := c.CheckpointState()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return data, nil
}

// restoreCheckpoint rebuilds engine state from cp, returning the slot
// to continue from.
func restoreCheckpoint(cp *Checkpoint, cfg Config, src *randx.CountingSource, res *Result,
	arena *packetArena, model interference.Model, proc inject.Process, proto Protocol, obs []Observer) (int64, error) {
	if cp.Seed != cfg.Seed {
		return 0, fmt.Errorf("checkpoint seed %d does not match config seed %d", cp.Seed, cfg.Seed)
	}
	if cp.Slot <= 0 || cp.Slot >= cfg.Slots {
		return 0, fmt.Errorf("checkpoint slot %d outside run of %d slots", cp.Slot, cfg.Slots)
	}
	if err := src.SeekTo(cp.RNGDraws); err != nil {
		return 0, err
	}
	res.Injected = cp.Injected
	res.Delivered = cp.Delivered
	res.ProtocolErrors = cp.ProtocolErrors
	res.AttemptedTx = cp.AttemptedTx
	res.SuccessfulTx = cp.SuccessfulTx
	for _, p := range cp.Packets {
		if len(p.Path) == 0 {
			return 0, fmt.Errorf("checkpoint packet %d has an empty path", p.ID)
		}
		st := arena.insert(p.ID, p.Path, p.Injected)
		st.hop = p.Hop
	}
	if err := restoreComponent(proc, cp.Process, "injection process"); err != nil {
		return 0, err
	}
	if err := restoreComponent(proto, cp.Protocol, "protocol"); err != nil {
		return 0, err
	}
	if cp.Model != nil {
		if err := restoreComponent(model, cp.Model, "model"); err != nil {
			return 0, err
		}
	}
	if len(cp.Observers) > 0 {
		if len(cp.Observers) != len(obs) {
			return 0, fmt.Errorf("checkpoint has %d observer states, run has %d observers — attach the same observers as the captured run", len(cp.Observers), len(obs))
		}
		for i, raw := range cp.Observers {
			if raw == nil || string(raw) == "null" {
				// Non-checkpointable observers capture no state; a JSON
				// round-trip through disk renders that absence as null.
				continue
			}
			c, ok := obs[i].(Checkpointable)
			if !ok {
				return 0, fmt.Errorf("observer %d (%T) has checkpoint state but no restore support", i, obs[i])
			}
			if err := c.RestoreState(raw); err != nil {
				return 0, fmt.Errorf("observer %d: %w", i, err)
			}
		}
	}
	return cp.Slot, nil
}

func restoreComponent(v any, data json.RawMessage, what string) error {
	if data == nil {
		return fmt.Errorf("checkpoint is missing %s state", what)
	}
	c, ok := v.(Checkpointable)
	if !ok {
		return fmt.Errorf("%s (%T) does not support checkpoint restore", what, v)
	}
	if err := c.RestoreState(data); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}
