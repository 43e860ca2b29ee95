package dynsched

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"dynsched/internal/sim"
)

// runWithCheckpoints compiles the scenario and runs it with a
// checkpoint sink capturing every checkpoint the engine emits.
func runWithCheckpoints(t *testing.T, sc Scenario, every int64) (*SimResult, []*sim.Checkpoint) {
	t.Helper()
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !sim.SupportsCheckpoint(c.Model, c.Process, c.Protocol) {
		t.Fatalf("scenario %q components do not support checkpointing", sc.Name)
	}
	var cps []*sim.Checkpoint
	c.Config.Checkpoint = &sim.CheckpointSpec{Every: every, Sink: func(cp *sim.Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, cps
}

func resumeFrom(t *testing.T, sc Scenario, cp *sim.Checkpoint) *SimResult {
	t.Helper()
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c.Config.Checkpoint = &sim.CheckpointSpec{Resume: cp}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func resultJSON(t *testing.T, r *SimResult) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointResumeBitIdentical is the durability tier's core
// invariant: a run resumed from any mid-run checkpoint produces a
// final result byte-identical to the uninterrupted run — across
// stochastic, adversarial, lossy, and trace-replay traffic.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		slots int64
		every int64
	}{
		{"line-stochastic", 6_000, 1_500},
		{"mac-adversarial", 6_000, 1_500},
		{"lossy-line", 6_000, 1_500},
		{"trace-replay", 2_000, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := ScenarioByName(tc.name)
			if !ok {
				t.Fatalf("scenario %q not registered", tc.name)
			}
			sc.Sim.Slots = tc.slots

			c, err := sc.Compile()
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := resultJSON(t, baseline)

			withCk, cps := runWithCheckpoints(t, sc, tc.every)
			if got := resultJSON(t, withCk); !bytes.Equal(got, want) {
				t.Fatalf("checkpoint capture perturbed the run:\n got %s\nwant %s", got, want)
			}
			if len(cps) == 0 {
				t.Fatalf("no checkpoints captured over %d slots at every=%d", tc.slots, tc.every)
			}

			for _, cp := range cps {
				res := resumeFrom(t, sc, cp)
				if got := resultJSON(t, res); !bytes.Equal(got, want) {
					t.Fatalf("resume from slot %d diverged:\n got %s\nwant %s", cp.Slot, got, want)
				}
			}
		})
	}
}

// TestCheckpointRoundTripsJSON pins that a checkpoint survives the
// serialize→deserialize cycle the durable tier uses for on-disk
// checkpoint files.
func TestCheckpointRoundTripsJSON(t *testing.T) {
	sc, ok := ScenarioByName("line-stochastic")
	if !ok {
		t.Fatal("line-stochastic not registered")
	}
	sc.Sim.Slots = 4_000

	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, baseline)

	_, cps := runWithCheckpoints(t, sc, 1_000)
	if len(cps) == 0 {
		t.Fatal("no checkpoints captured")
	}
	data, err := json.Marshal(cps[len(cps)-1])
	if err != nil {
		t.Fatal(err)
	}
	var cp sim.Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	res := resumeFrom(t, sc, &cp)
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("resume from round-tripped checkpoint diverged:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointResumeRejectsMismatch pins the guard rails: a
// checkpoint only resumes the run that produced it.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	sc, ok := ScenarioByName("line-stochastic")
	if !ok {
		t.Fatal("line-stochastic not registered")
	}
	sc.Sim.Slots = 4_000
	_, cps := runWithCheckpoints(t, sc, 1_000)
	if len(cps) == 0 {
		t.Fatal("no checkpoints captured")
	}
	cp := cps[0]

	t.Run("wrong seed", func(t *testing.T) {
		bad := sc
		bad.Sim.Seed = sc.Sim.Seed + 1
		c, err := bad.Compile()
		if err != nil {
			t.Fatal(err)
		}
		c.Config.Checkpoint = &sim.CheckpointSpec{Resume: cp}
		if _, err := c.Run(context.Background()); err == nil {
			t.Fatal("resume with mismatched seed succeeded")
		}
	})
	t.Run("slot beyond horizon", func(t *testing.T) {
		c, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		short := *cp
		short.Slot = sc.Sim.Slots + 1
		c.Config.Checkpoint = &sim.CheckpointSpec{Resume: &short}
		if _, err := c.Run(context.Background()); err == nil {
			t.Fatal("resume beyond the horizon succeeded")
		}
	})
	t.Run("empty packet path", func(t *testing.T) {
		if len(cp.Packets) == 0 {
			t.Fatal("checkpoint holds no packet in flight")
		}
		c, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		bad := *cp
		bad.Packets = slices.Clone(cp.Packets)
		bad.Packets[0].Path = nil
		c.Config.Checkpoint = &sim.CheckpointSpec{Resume: &bad}
		if _, err := c.Run(context.Background()); err == nil {
			t.Fatal("resume with a pathless packet succeeded")
		}
	})
}
