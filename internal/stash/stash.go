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
//     Remove, IDs), and snapshots them.
//   - It accounts occupancy, the high-water mark and overflow.
//   - It plans every eviction, for all three tree ORAMs (Path, RAW and
//     Ring ORAM), by one rule — leaf first, each bucket the lowest ids
//     allowed there — over the path's blocks and the residents (Begin,
//     Take, Hold, JoinResidents, Plan, Bucket, Settle). The ORAMs keep
//     the blocks of the path they read where they lie; room for each is
//     reserved, so the counts move exactly as if each had been Put, and
//     only the blocks no bucket took are copied into the stash.
//   - It recycles blocks and their payloads (NewBlock, Recycle).
//
// Property tests use the counts to validate the paper's stash-occupancy
// arguments (Sec 4.4, privacy analysis).
package stash

import (
	"errors"
	"fmt"
	"math/bits"
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

	// The eviction in flight (see Begin): its entries, how many of them
	// are not residents, and the planner's scratch — the entries listed
	// by depth (heads by level, next by entry), the candidate pool, and
	// each level's planned entries (z per level) and their count. Sized
	// by the path and its entries, kept for their capacity, never
	// serialized.
	entries  []Entry
	held     int
	heads    []int32
	next     []int32
	pool     []int32
	planned  []int32
	nPlanned []int
	z        int
	// free holds blocks NewBlock may reuse, with their Data: those an
	// eviction wrote into the tree, and those handed back through Recycle.
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

// reserve accounts n blocks an eviction in flight holds outside the
// stash as if they had been Put: it fails with ErrOverflow when Len()+n
// exceeds the capacity, and otherwise raises the high-water mark to
// Len()+n. Settle Puts the held blocks no bucket took, which then never
// overflows.
func (s *Stash) reserve(n int) error {
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
// contents unspecified, reusing a recycled one when it can.
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

// An eviction writes a path back by one rule, the same in every tree
// ORAM: walking the path leaf first, each bucket takes the Z lowest ids
// among the blocks that may lie that deep and no deeper bucket took. The
// blocks taking part are the eviction's entries: the path's blocks, which
// the caller keeps where it read them (Take) or in blocks of its own
// (Hold), and the residents (JoinResidents). Plan places them, Bucket
// lists each bucket's, and Settle ends the eviction.

// Entry is one block of the eviction in flight.
type Entry struct {
	ID   uint64
	Leaf uint32
	// Data is the block's bytes: the caller's for an entry it Took, the
	// block's otherwise. The caller may change them and Leaf before Plan;
	// Settle keeps both.
	Data []byte
	// level is the bucket Plan put the entry in, or -1 for none.
	level int32
	// blk owns Data unless the entry was Taken: a resident when resident
	// is set, else a block the caller Held.
	blk      *Block
	resident bool
}

// Begin starts an eviction with no entries.
func (s *Stash) Begin() {
	s.entries = s.entries[:0]
	s.held = 0
}

// Take adds a block the caller read off the path and keeps where it lies:
// data must stay valid until Settle. Room for it is reserved first, so a
// path that does not fit fails with ErrOverflow where putting each of
// its blocks would have, and the entry is not added.
func (s *Stash) Take(id uint64, leaf uint32, data []byte) error {
	if err := s.reserve(s.held + 1); err != nil {
		return err
	}
	s.held++
	s.entries = append(s.entries, Entry{ID: id, Leaf: leaf, Data: data, level: -1})
	return nil
}

// Hold adds b, a block the caller made (NewBlock) and has not Put, as
// Take does; on overflow b is recycled.
func (s *Stash) Hold(b *Block) error {
	if err := s.reserve(s.held + 1); err != nil {
		s.Recycle(b)
		return err
	}
	s.held++
	s.entries = append(s.entries, Entry{ID: b.ID, Leaf: b.Leaf, Data: b.Data, level: -1, blk: b})
	return nil
}

// JoinResidents adds every resident as an entry.
func (s *Stash) JoinResidents() {
	for _, b := range s.blocks {
		s.entries = append(s.entries, Entry{ID: b.ID, Leaf: b.Leaf, Data: b.Data, level: -1, blk: b, resident: true})
	}
}

// Entries returns the eviction's entries, in the order they were added.
func (s *Stash) Entries() []Entry { return s.entries }

// Plan places the entries on the path to leaf in a tree of levels levels
// (root = level 0), filling the buckets from level deepest up to the
// root with at most z entries each. An entry may lie as deep as the path
// to its own leaf follows this one (no deeper than deepest); each bucket
// takes the z lowest ids among the entries that may lie that deep and no
// deeper bucket took — map order never reaches the tree bytes. Entries
// are listed by depth and the candidates kept in a small id-sorted pool,
// so the plan is one pass, not a sort and a rescan per level.
func (s *Stash) Plan(leaf uint32, levels, deepest, z int) {
	n := len(s.entries)
	s.heads = slices.Grow(s.heads[:0], deepest+1)[:deepest+1]
	for d := range s.heads {
		s.heads[d] = -1
	}
	s.next = slices.Grow(s.next[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		d := min(levels-1-bits.Len32(s.entries[i].Leaf^leaf), deepest)
		s.next[i], s.heads[d] = s.heads[d], int32(i)
	}
	s.z = z
	s.planned = slices.Grow(s.planned[:0], (deepest+1)*z)[:(deepest+1)*z]
	s.nPlanned = slices.Grow(s.nPlanned[:0], deepest+1)[:deepest+1]
	// The pool is in descending id order: a bucket takes from its end.
	pool := s.pool[:0]
	for l := deepest; l >= 0; l-- {
		for i := s.heads[l]; i >= 0; i = s.next[i] {
			id := s.entries[i].ID
			j := len(pool)
			pool = append(pool, i)
			for ; j > 0 && s.entries[pool[j-1]].ID < id; j-- {
				pool[j] = pool[j-1]
			}
			pool[j] = i
		}
		k := min(z, len(pool))
		for slot := 0; slot < k; slot++ {
			i := pool[len(pool)-1-slot]
			s.planned[l*z+slot] = i
			s.entries[i].level = int32(l)
		}
		s.nPlanned[l] = k
		pool = pool[:len(pool)-k]
	}
	s.pool = pool
}

// Bucket returns the entries Plan put in the bucket at level, in slot
// order, as indices into Entries.
func (s *Stash) Bucket(level int) []int32 {
	return s.planned[level*s.z:][:s.nPlanned[level]]
}

// Settle ends the eviction once the buckets from the deepest planned
// level up to level written are in the tree — written is the shallowest
// bucket written, or on a failed bucket write the level that failed,
// whose entries are lost with it. Their entries leave the stash: a
// resident is removed, and a block the caller Held is recycled. Every
// other entry stays in the stash or joins it — an entry the caller Took
// is copied into a block of its own, its room already reserved. On a
// failure before Plan no entry was placed and every one stays. Settle
// returns err, or an overflow no reservation covered.
func (s *Stash) Settle(written int, err error) error {
	for i := range s.entries {
		e := &s.entries[i]
		switch {
		case e.level >= int32(written):
			if e.blk != nil {
				if e.resident {
					delete(s.blocks, e.ID)
				}
				s.Recycle(e.blk)
			}
		case e.blk == nil:
			b := s.NewBlock(e.ID, e.Leaf, len(e.Data))
			copy(b.Data, e.Data)
			if perr := s.Put(b); err == nil {
				err = perr
			}
		default:
			e.blk.Leaf = e.Leaf
			if !e.resident {
				if perr := s.Put(e.blk); err == nil {
					err = perr
				}
			}
		}
	}
	s.Begin()
	return err
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
