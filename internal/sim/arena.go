package sim

import "dynsched/internal/netgraph"

// The packet arena: the simulator's ground-truth store for in-flight
// packets. The previous engine kept a map[int64]*pktState and allocated
// a fresh pktState (plus a path copy) per injected packet; under heavy
// traffic that put two heap allocations and a map insert/delete on
// every packet lifecycle and a hash lookup on every transmission. The
// arena replaces it with a flat slice of packet slots recycled through
// a free list, addressed by dense handles, plus a compact open-
// addressing index from packet ID to handle. A slot keeps the injected
// packet's own netgraph.Path — the process's read-only route, shared
// for the packet's lifetime — so no route is copied or hashed. Steady
// state allocates nothing: delivered packets return their slots to the
// free list, and the index reuses its cells (growing only when the live
// population exceeds every previous high-water mark).

// pktState is the simulator's ground truth for an in-flight packet.
type pktState struct {
	id       int64
	injected int64
	path     netgraph.Path // the process's route, shared read-only
	hop      int           // next hop index
}

// packetArena stores in-flight packets in recycled slots.
type packetArena struct {
	slots []pktState
	free  []int32

	// Open-addressing index: keys/vals form a power-of-two hash table
	// mapping packet ID → slot handle, with linear probing and
	// backward-shift deletion (no tombstones). vals[i] < 0 marks an
	// empty cell.
	keys []int64
	vals []int32
	mask uint64
	live int
}

func newPacketArena() *packetArena {
	a := &packetArena{}
	a.initIndex(64)
	return a
}

// hashID mixes a packet ID into a table position (splitmix64 finalizer).
func hashID(id int64) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (a *packetArena) initIndex(capacity int) {
	a.keys = make([]int64, capacity)
	a.vals = make([]int32, capacity)
	for i := range a.vals {
		a.vals[i] = -1
	}
	a.mask = uint64(capacity - 1)
}

// len returns the number of in-flight packets.
func (a *packetArena) len() int { return a.live }

// find returns the table position of id, or the first empty position of
// its probe sequence (with found=false) when absent.
func (a *packetArena) find(id int64) (pos uint64, found bool) {
	pos = hashID(id) & a.mask
	for {
		if a.vals[pos] < 0 {
			return pos, false
		}
		if a.keys[pos] == id {
			return pos, true
		}
		pos = (pos + 1) & a.mask
	}
}

// get returns the packet with the given ID, or nil. The pointer is
// valid until the next insert (slot storage may move when it grows).
func (a *packetArena) get(id int64) *pktState {
	pos, ok := a.find(id)
	if !ok {
		return nil
	}
	return &a.slots[a.vals[pos]]
}

// insert registers a packet, reusing a free slot when one exists. An
// already-present ID overwrites its slot in place (matching the old
// map semantics for a process that reuses IDs). The returned pointer is
// valid until the next insert.
func (a *packetArena) insert(id int64, path netgraph.Path, injected int64) *pktState {
	pos, found := a.find(id)
	if found {
		st := &a.slots[a.vals[pos]]
		st.path, st.hop, st.injected = path, 0, injected
		return st
	}
	// Keep the table under 3/4 load so probe chains stay short.
	if uint64(a.live+1)*4 > uint64(len(a.keys))*3 {
		a.grow()
		pos, _ = a.find(id)
	}
	var h int32
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.slots = append(a.slots, pktState{})
		h = int32(len(a.slots) - 1)
	}
	st := &a.slots[h]
	st.id, st.path, st.hop, st.injected = id, path, 0, injected
	a.keys[pos], a.vals[pos] = id, h
	a.live++
	return st
}

// remove deletes the packet with the given ID, returning its slot to
// the free list. Removing an absent ID is a no-op.
func (a *packetArena) remove(id int64) {
	pos, found := a.find(id)
	if !found {
		return
	}
	h := a.vals[pos]
	a.slots[h].path = nil
	a.free = append(a.free, h)
	a.live--
	// Backward-shift deletion: close the probe chain by moving any
	// displaced entry that hashed at or before the vacated cell into it.
	i := pos
	j := pos
	for {
		a.vals[i] = -1
		for {
			j = (j + 1) & a.mask
			if a.vals[j] < 0 {
				return
			}
			k := hashID(a.keys[j]) & a.mask
			// Move entry j into the hole at i unless its home position k
			// lies cyclically within (i, j] — then it is already as close
			// to home as the probe chain allows.
			if i <= j {
				if i < k && k <= j {
					continue
				}
			} else if i < k || k <= j {
				continue
			}
			break
		}
		a.keys[i], a.vals[i] = a.keys[j], a.vals[j]
		i = j
	}
}

// grow doubles the index table and rehashes every live entry.
func (a *packetArena) grow() {
	oldKeys, oldVals := a.keys, a.vals
	a.initIndex(2 * len(oldKeys))
	for i, v := range oldVals {
		if v < 0 {
			continue
		}
		pos, _ := a.find(oldKeys[i])
		a.keys[pos], a.vals[pos] = oldKeys[i], v
	}
}
