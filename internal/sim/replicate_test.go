package sim

import "testing"

func TestSubSeedStreamsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for shard := 0; shard < 64; shard++ {
			s := SubSeed(base, shard)
			if seen[s] {
				t.Fatalf("SubSeed(%d,%d) = %d collides", base, shard, s)
			}
			seen[s] = true
		}
	}
	if SubSeed(42, 7) != SubSeed(42, 7) {
		t.Fatal("SubSeed is not a pure function")
	}
}
