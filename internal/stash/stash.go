// Package stash implements the ORAM stash: the bounded buffer that holds
// blocks which are in transit between tree paths (Sec 2.3 of the FEDORA
// paper). The Path ORAM invariant is that every block is either in a
// bucket along its assigned path or in the stash.
//
// FEDORA places the stash in off-chip DRAM (Sec 4.4, Optimization 3),
// which allows it to be much larger than an on-chip stash; accesses to it
// must then be data-oblivious (linear scans), whose DRAM traffic the ORAM
// layers charge to the device model.
//
// What the package does:
//
//   - It holds the residents between accesses — the blocks no bucket of
//     the last path written could take — indexed by ID (Put, Get,
//     Remove, IDs, ForEach), and snapshots them.
//   - It accounts occupancy, the high-water mark and overflow, including
//     for blocks an access holds outside it: the Path ORAM keeps the
//     blocks of the path it read where they lie and only Reserves room
//     for them, so the counts move exactly as if each had been Put.
//   - It plans a greedy eviction over its residents (BeginEviction,
//     Pick) for the RAW ORAM and Ring ORAM, which read a path's blocks
//     into it. The Path ORAM plans its own path in one pass and makes the
//     same choice.
//   - It recycles blocks and their payloads (NewBlock, Recycle).
//
// Property tests use the counts to validate the paper's stash-occupancy
// arguments (Sec 4.4, privacy analysis).
package stash

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrOverflow is returned when an insert would exceed the stash capacity.
// In a correctly parameterized ORAM this is a negligible-probability
// event; the simulator surfaces it loudly instead of corrupting state.
var ErrOverflow = errors.New("stash: overflow")

// Block is a data block held in the stash.
type Block struct {
	ID   uint64
	Leaf uint32 // currently assigned path
	Data []byte // payload; nil in phantom (accounting-only) mode
}

// Stash holds up to capacity blocks.
type Stash struct {
	capacity int
	blocks   map[uint64]*Block
	peak     int // high-water mark

	// Eviction planner state (BeginEviction/Pick): the blocks still to be
	// placed in ascending-ID order, the path being written, and the last
	// Pick's result. Scratch only — rebuilt by every BeginEviction, never
	// serialized.
	order       []*Block
	picked      []*Block
	evictLeaf   uint32
	evictLevels int
	// free holds blocks NewBlock may reuse, with their Data: those Pick
	// handed out and the caller has since packed into a bucket, and those
	// handed back through Recycle.
	free []*Block
}

// New creates a stash with the given capacity. capacity <= 0 means
// unbounded (used by the buffer ORAM, which is sized to never overflow
// by construction — Sec 4.3).
func New(capacity int) *Stash {
	return &Stash{capacity: capacity, blocks: make(map[uint64]*Block)}
}

// Put inserts or replaces a block. Replacing an existing ID never
// overflows; inserting a new one fails with ErrOverflow at capacity.
func (s *Stash) Put(b *Block) error {
	if b == nil {
		return errors.New("stash: nil block")
	}
	if _, exists := s.blocks[b.ID]; !exists && s.capacity > 0 && len(s.blocks) >= s.capacity {
		return s.overflow()
	}
	s.blocks[b.ID] = b
	if len(s.blocks) > s.peak {
		s.peak = len(s.blocks)
	}
	return nil
}

// Reserve accounts n blocks an access in flight holds outside the
// stash — blocks read off a path that eviction will mostly write
// straight back — as if they had been Put: it fails with ErrOverflow
// when Len()+n exceeds the capacity, and otherwise raises the
// high-water mark to Len()+n. The caller reserves n+1 before taking on
// its next block and Puts the blocks no bucket took when the access
// ends, which then never overflows.
func (s *Stash) Reserve(n int) error {
	m := len(s.blocks) + n
	if s.capacity > 0 && m > s.capacity {
		return s.overflow()
	}
	s.peak = max(s.peak, m)
	return nil
}

// overflow is the error an insert past the capacity returns.
func (s *Stash) overflow() error { return fmt.Errorf("%w: capacity %d", ErrOverflow, s.capacity) }

// Get returns the block with the given ID, or nil.
func (s *Stash) Get(id uint64) *Block { return s.blocks[id] }

// Remove deletes and returns the block with the given ID, or nil.
func (s *Stash) Remove(id uint64) *Block {
	b := s.blocks[id]
	delete(s.blocks, id)
	return b
}

// Len returns the current occupancy.
func (s *Stash) Len() int { return len(s.blocks) }

// Peak returns the high-water mark since creation.
func (s *Stash) Peak() int { return s.peak }

// Capacity returns the configured capacity (0 = unbounded).
func (s *Stash) Capacity() int { return s.capacity }

// NewBlock returns a block with the given identity and len(Data) == n,
// contents unspecified, reusing a released or recycled one when it can.
// The block is not resident until Put.
func (s *Stash) NewBlock(id uint64, leaf uint32, n int) *Block {
	var b *Block
	if k := len(s.free); k > 0 {
		b, s.free = s.free[k-1], s.free[:k-1]
	} else {
		b = new(Block)
	}
	b.ID, b.Leaf = id, leaf
	if cap(b.Data) < n {
		b.Data = make([]byte, n)
	}
	b.Data = b.Data[:n]
	return b
}

// Recycle hands b back for NewBlock to reuse. b must not be resident
// (never Put, or Removed) and the caller gives up b and its Data.
func (s *Stash) Recycle(b *Block) { s.free = append(s.free, b) }

// BeginEviction starts the greedy Path ORAM eviction along the path to
// leaf in a tree with treeLevels levels (root = level 0): it orders the
// resident blocks by ID once, so the Pick calls that follow — one per
// bucket written, deepest level first — need no further sorting. Blocks
// Put after BeginEviction are not seen by Pick.
func (s *Stash) BeginEviction(leaf uint32, treeLevels int) {
	s.release()
	s.order = s.order[:0]
	for _, b := range s.blocks {
		s.order = append(s.order, b)
	}
	slices.SortFunc(s.order, func(a, b *Block) int { return cmp.Compare(a.ID, b.ID) })
	s.evictLeaf, s.evictLevels = leaf, treeLevels
}

// Pick removes from the stash and returns up to max blocks whose
// assigned leaf shares the length-`level` path prefix with the eviction
// leaf — i.e. blocks that may legally be placed into the bucket at depth
// `level`. Among the candidates it takes the lowest IDs, in ascending
// order: map-order iteration would make the eviction choice (and hence
// the tree bytes) differ run to run, breaking bit-identical state
// snapshots. The returned blocks and their Data are valid only until the
// next Pick or BeginEviction, which recycle them through NewBlock; the
// caller copies what it stores.
func (s *Stash) Pick(level, max int) []*Block {
	s.release()
	shift := uint(s.evictLevels - 1 - level)
	want := s.evictLeaf >> shift
	rest := s.order[:0]
	for _, b := range s.order {
		if len(s.picked) < max && b.Leaf>>shift == want {
			s.picked = append(s.picked, b)
			delete(s.blocks, b.ID)
		} else {
			rest = append(rest, b)
		}
	}
	s.order = rest
	return s.picked
}

// release recycles the previous Pick's blocks.
func (s *Stash) release() {
	s.free = append(s.free, s.picked...)
	s.picked = s.picked[:0]
}

// ForEach calls fn for every block; iteration order is unspecified.
func (s *Stash) ForEach(fn func(*Block)) {
	for _, b := range s.blocks {
		fn(b)
	}
}

// IDs returns the IDs of all resident blocks in ascending order (a
// deterministic order keeps eviction and serialization reproducible).
func (s *Stash) IDs() []uint64 {
	out := make([]uint64, 0, len(s.blocks))
	for id := range s.blocks {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// ScanBytes returns the number of DRAM bytes one full oblivious linear
// scan of the stash touches, given the per-slot stored size. The scan
// must cover capacity slots (not just occupied ones) to stay oblivious.
func (s *Stash) ScanBytes(slotBytes int) uint64 {
	n := s.capacity
	if n <= 0 {
		n = len(s.blocks)
	}
	return uint64(n) * uint64(slotBytes)
}
