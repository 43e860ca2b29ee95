package sim

import (
	"context"
	"dynsched/internal/interference"
	"errors"
	"testing"
	"time"
)

// TestRunCancelledMidRun cancels the context from another goroutine
// while the engine is inside a run far too long to ever finish, and
// checks Run returns promptly with a partial result. Run under -race
// this also proves the engine/canceller interaction is race-clean.
func TestRunCancelledMidRun(t *testing.T) {
	m := interference.Identity{Links: 2}
	proc := singleHopProcess(t, m, 2, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Config{Slots: 1 << 40, Seed: 3}, m, proc, newFifoProto(2))
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Slots <= 0 || res.Slots >= 1<<40 {
		t.Errorf("partial result executed %d slots", res.Slots)
	}
	if res.Delivered+res.InFlight != res.Injected {
		t.Errorf("partial result violates conservation: %d+%d != %d",
			res.Delivered, res.InFlight, res.Injected)
	}
	// Partial metrics are still composed: the queue series exists and
	// ends at the last executed slot.
	if res.Queue.Len() == 0 {
		t.Error("partial result has empty queue series")
	} else if last := res.Queue.T[res.Queue.Len()-1]; int64(last) != res.Slots-1 {
		t.Errorf("queue series ends at t=%v, want %d", last, res.Slots-1)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestRunDeadlineExceeded drives cancellation through a deadline.
func TestRunDeadlineExceeded(t *testing.T) {
	m := interference.Identity{Links: 1}
	proc := singleHopProcess(t, m, 1, 0.1)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, Config{Slots: 1 << 40, Seed: 4}, m, proc, newFifoProto(1))
	if err == nil {
		t.Fatal("deadline-exceeded run returned no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if res == nil || res.Slots <= 0 {
		t.Fatal("no partial result")
	}
}
