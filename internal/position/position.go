// Package position implements the ORAM position map: the mapping from
// block ID to the tree leaf (path) the block is currently assigned to.
//
// In Path ORAM and RAW ORAM the position map is consulted on every
// access and updated with a fresh uniformly-random leaf (Sec 2.3 of the
// FEDORA paper). FEDORA keeps it in off-chip DRAM, encrypted with the
// group scheme of Sec 5.2; its byte footprint matters for the cost model.
//
// Two implementations are provided:
//
//   - Dense: a flat []uint32, the straightforward choice for tables that
//     fit comfortably in host memory.
//   - Sparse: a PRF-derived default assignment plus a dirty overlay.
//     A block that has never been remapped sits on the pseudorandom leaf
//     PRF(seed, id); only remapped blocks consume host memory. This lets
//     experiments run production-scale tables (up to 250 M entries in the
//     paper's Large configuration) without materializing gigabytes, while
//     remaining behaviourally identical to Dense (verified by tests).
package position

import (
	"fmt"

	"repro/internal/paged"
)

// Map is an ORAM position map over numLeaves leaves.
type Map interface {
	// Get returns the leaf currently assigned to id.
	Get(id uint64) uint32
	// Set reassigns id to leaf.
	Set(id uint64, leaf uint32)
	// NumLeaves returns the leaf-count of the tree this map serves.
	NumLeaves() uint32
	// SizeBytes is the footprint the map would occupy in (untrusted,
	// encrypted) DRAM: 4 bytes per block regardless of implementation.
	// The cost model charges this, not the host-side sparse overlay.
	SizeBytes() uint64
}

// GetSetter is an optional optimization interface: GetSet atomically
// returns the current leaf and installs a new one. For ORAM-backed
// recursive maps this halves the accesses per lookup (one combined
// read-modify-write instead of Get + Set).
type GetSetter interface {
	GetSet(id uint64, newLeaf uint32) (old uint32)
}

// GetSet performs Get-then-Set through the optimized path when the map
// supports it.
func GetSet(m Map, id uint64, newLeaf uint32) uint32 {
	if gs, ok := m.(GetSetter); ok {
		return gs.GetSet(id, newLeaf)
	}
	old := m.Get(id)
	m.Set(id, newLeaf)
	return old
}

// Dense is a flat position map.
type Dense struct {
	leaves uint32
	pos    []uint32
}

// NewDense builds a dense map for numBlocks blocks, all initially
// assigned by the same PRF as Sparse (so the two implementations agree).
func NewDense(numBlocks uint64, numLeaves uint32, seed uint64) *Dense {
	d := &Dense{leaves: numLeaves, pos: make([]uint32, numBlocks)}
	for i := range d.pos {
		d.pos[i] = prfLeaf(seed, uint64(i), numLeaves)
	}
	return d
}

// Get implements Map.
func (d *Dense) Get(id uint64) uint32 {
	if id >= uint64(len(d.pos)) {
		panic(fmt.Sprintf("position: id %d out of range %d", id, len(d.pos)))
	}
	return d.pos[id]
}

// Set implements Map.
func (d *Dense) Set(id uint64, leaf uint32) {
	if leaf >= d.leaves {
		panic(fmt.Sprintf("position: leaf %d out of range %d", leaf, d.leaves))
	}
	d.pos[id] = leaf
}

// GetSet implements GetSetter.
func (d *Dense) GetSet(id uint64, newLeaf uint32) uint32 {
	old := d.Get(id)
	d.Set(id, newLeaf)
	return old
}

// NumLeaves implements Map.
func (d *Dense) NumLeaves() uint32 { return d.leaves }

// SizeBytes implements Map.
func (d *Dense) SizeBytes() uint64 { return uint64(len(d.pos)) * 4 }

// Sparse is a position map whose default assignment is computed by a PRF
// and whose reassignments live in an overlay.
type Sparse struct {
	numBlocks uint64
	leaves    uint32
	seed      uint64
	// dirty holds leaf+1 for every remapped block; 0 (absent) falls
	// through to the PRF. Its memory follows the blocks touched, never
	// numBlocks.
	dirty paged.Table[uint32]
}

// NewSparse builds a sparse map for numBlocks blocks.
func NewSparse(numBlocks uint64, numLeaves uint32, seed uint64) *Sparse {
	return &Sparse{numBlocks: numBlocks, leaves: numLeaves, seed: seed}
}

// Get implements Map.
func (s *Sparse) Get(id uint64) uint32 {
	if id >= s.numBlocks {
		panic(fmt.Sprintf("position: id %d out of range %d", id, s.numBlocks))
	}
	if v := s.dirty.Get(id); v != 0 {
		return v - 1
	}
	return prfLeaf(s.seed, id, s.leaves)
}

// Set implements Map.
func (s *Sparse) Set(id uint64, leaf uint32) {
	if leaf >= s.leaves {
		panic(fmt.Sprintf("position: leaf %d out of range %d", leaf, s.leaves))
	}
	s.dirty.Set(id, leaf+1)
}

// GetSet implements GetSetter.
func (s *Sparse) GetSet(id uint64, newLeaf uint32) uint32 {
	old := s.Get(id)
	s.Set(id, newLeaf)
	return old
}

// NumLeaves implements Map.
func (s *Sparse) NumLeaves() uint32 { return s.leaves }

// SizeBytes implements Map.
func (s *Sparse) SizeBytes() uint64 { return s.numBlocks * 4 }

// DirtyCount reports how many blocks have been remapped; tests use it to
// confirm sparseness.
func (s *Sparse) DirtyCount() int { return s.dirty.Len() }

// prfLeaf maps (seed, id) to a leaf in [0, numLeaves) using a splitmix64
// finalizer — statistically uniform and deterministic.
func prfLeaf(seed, id uint64, numLeaves uint32) uint32 {
	x := seed ^ (id + 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x % uint64(numLeaves))
}
