// Package randx wraps math/rand sources with draw accounting so RNG
// state can be checkpointed and restored without changing the random
// stream. math/rand's source state is not serializable, but its
// generators are deterministic: position in the stream is fully
// determined by (seed, number of draws). A CountingSource records the
// draw count as the stream is consumed; a checkpoint stores
// (seed, draws) and resume replays the same source forward to the same
// position. The wrapper delegates every draw unchanged, so a
// rand.Rand built on a CountingSource produces bit-identical values to
// one built on the bare source — the invariant every pinned
// bit-identity test in this repo depends on.
package randx

import (
	"fmt"
	"math/rand"
)

// CountingSource is a rand.Source64 that counts draws. Both Int63 and
// Uint64 advance the underlying generator by exactly one step (true
// for math/rand's seeded source, which implements Source64), so one
// draw == one counter increment regardless of which method rand.Rand
// dispatches to.
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

// NewCounting returns a counting source seeded with seed.
// rand.NewSource's result always implements Source64.
func NewCounting(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

// Uint64 implements rand.Source64. rand.Rand uses this path for
// Uint64 (and everything derived from it) when the source implements
// Source64; delegating keeps the stream identical to the bare source.
func (c *CountingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed implements rand.Source: reseed and reset the draw count.
func (c *CountingSource) Seed(seed int64) {
	c.src = rand.NewSource(seed).(rand.Source64)
	c.draws = 0
}

// Draws returns the number of draws consumed since the last (re)seed.
func (c *CountingSource) Draws() uint64 { return c.draws }

// Skip advances the source by n draws, discarding the values. Used on
// resume to fast-forward a freshly seeded source to a checkpointed
// stream position.
func (c *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws += n
}

// SeekTo fast-forwards the source to an absolute draw count recorded
// by a checkpoint. The source must not already be past the target —
// draws only move forward.
func (c *CountingSource) SeekTo(draws uint64) error {
	if draws < c.draws {
		return fmt.Errorf("randx: cannot seek backwards (at %d, target %d)", c.draws, draws)
	}
	c.Skip(draws - c.draws)
	return nil
}
