package pathoram

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/position"
	"repro/internal/tree"
)

// This file implements the recursive position map of Stefanov et al.
// (Sec 2.3 of the FEDORA paper: "If the position map is too large, it
// can also be stored off-chip in separate recursive ORAMs").
//
// The position map of an N-block ORAM is packed, EntriesPerBlock leaf
// assignments per block, into a smaller Path ORAM; that ORAM's own
// position map recurses into a yet smaller ORAM, until the residual map
// fits ThresholdBytes and is held directly (standing in for the paper's
// trusted controller metadata). Every level is wired: looking up one
// data-block position costs exactly one ORAM access per level, via
// position.GetSetter.

// RecursiveMapConfig parameterizes the recursion.
type RecursiveMapConfig struct {
	// NumBlocks / NumLeaves describe the map being virtualized: the data
	// ORAM's block count and leaf count.
	NumBlocks uint64
	NumLeaves uint32
	// EntriesPerBlock is how many uint32 positions pack into one block of
	// a map ORAM (default 64 → 256-byte blocks).
	EntriesPerBlock int
	// ThresholdBytes stops the recursion once a level's map fits (default
	// 64 KiB).
	ThresholdBytes uint64
	// Seed drives all levels' randomness.
	Seed int64
}

func (c *RecursiveMapConfig) setDefaults() {
	if c.EntriesPerBlock == 0 {
		c.EntriesPerBlock = 64
	}
	if c.ThresholdBytes == 0 {
		c.ThresholdBytes = 64 << 10
	}
}

// RecursiveMap is a position.Map backed by a chain of Path ORAMs on a
// device. It implements position.GetSetter.
type RecursiveMap struct {
	top    *oramBackedMap
	levels []*ORAM
}

// NewRecursiveMap builds the wired ORAM chain on dev.
func NewRecursiveMap(cfg RecursiveMapConfig, dev device.Device) (*RecursiveMap, error) {
	cfg.setDefaults()
	if cfg.NumBlocks == 0 || cfg.NumLeaves == 0 {
		return nil, fmt.Errorf("pathoram: recursive map needs NumBlocks and NumLeaves")
	}
	// Plan the chain: counts[i] is the block count of map-level i, which
	// stores the positions of level i−1's blocks (level −1 = data ORAM).
	epb := uint64(cfg.EntriesPerBlock)
	var counts []uint64
	n := cfg.NumBlocks
	for n*4 > cfg.ThresholdBytes {
		blocks := (n + epb - 1) / epb
		counts = append(counts, blocks)
		n = blocks
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("pathoram: map of %d blocks fits threshold %d — use a flat map",
			cfg.NumBlocks, cfg.ThresholdBytes)
	}
	// Every level's geometry is deterministic, so leaf counts are known
	// before construction; each level's tree is packed at its own base
	// address on the shared device.
	leavesOf := make([]uint32, len(counts))
	for i, c := range counts {
		leavesOf[i], _ = tree.Geometry(c, 4, 8)
	}
	// Build from the deepest level up. The deepest level's own position
	// map is a plain sparse map (the residual fits the threshold).
	rm := &RecursiveMap{levels: make([]*ORAM, len(counts))}
	var inner position.Map // position map for the level being built
	var base uint64
	for i := len(counts) - 1; i >= 0; i-- {
		oCfg := Config{
			NumBlocks:   counts[i],
			BlockSize:   4 * cfg.EntriesPerBlock,
			BucketSlots: 4,
			Seed:        cfg.Seed + int64(i) + 1,
			PositionMap: inner,
			BaseAddr:    base,
		}
		o, err := New(oCfg, dev)
		if err != nil {
			return nil, fmt.Errorf("pathoram: recursive level %d: %w", i, err)
		}
		rm.levels[i] = o
		base += o.RequiredBytes()
		if i > 0 {
			// Level i−1's positions live in this ORAM.
			inner = &oramBackedMap{
				store:     o,
				numBlocks: counts[i-1],
				numLeaves: leavesOf[i-1],
				epb:       cfg.EntriesPerBlock,
				seed:      uint64(cfg.Seed) + uint64(i)*7919,
			}
		}
	}
	rm.top = &oramBackedMap{
		store:     rm.levels[0],
		numBlocks: cfg.NumBlocks,
		numLeaves: cfg.NumLeaves,
		epb:       cfg.EntriesPerBlock,
		seed:      uint64(cfg.Seed) + 104729,
	}
	return rm, nil
}

// Levels reports the recursion depth.
func (rm *RecursiveMap) Levels() int { return len(rm.levels) }

// AccessTime is the accumulated modelled device time of map lookups
// across all levels.
func (rm *RecursiveMap) AccessTime() time.Duration {
	var d time.Duration
	d += rm.top.time
	for _, o := range rm.levels {
		if m, ok := o.pos.(*oramBackedMap); ok {
			d += m.time
		}
	}
	return d
}

// RequiredBytes is the chain's total device footprint.
func (rm *RecursiveMap) RequiredBytes() uint64 {
	var total uint64
	for _, o := range rm.levels {
		total += o.RequiredBytes()
	}
	return total
}

// Get implements position.Map.
func (rm *RecursiveMap) Get(id uint64) uint32 { return rm.top.Get(id) }

// Set implements position.Map.
func (rm *RecursiveMap) Set(id uint64, leaf uint32) { rm.top.Set(id, leaf) }

// GetSet implements position.GetSetter.
func (rm *RecursiveMap) GetSet(id uint64, newLeaf uint32) uint32 {
	return rm.top.GetSet(id, newLeaf)
}

// NumLeaves implements position.Map.
func (rm *RecursiveMap) NumLeaves() uint32 { return rm.top.numLeaves }

// SizeBytes implements position.Map.
func (rm *RecursiveMap) SizeBytes() uint64 { return rm.RequiredBytes() }

// oramBackedMap stores uint32 positions inside an ORAM, EntriesPerBlock
// per block. Because 0 is a valid leaf, each stored entry reserves its
// top bit as an "assigned" flag; unassigned entries report a
// deterministic PRF leaf, matching position.Sparse semantics (leaves are
// far below 2³¹ in any realizable configuration).
type oramBackedMap struct {
	store     *ORAM
	numBlocks uint64
	numLeaves uint32
	epb       int
	seed      uint64
	time      time.Duration
}

var _ position.Map = (*oramBackedMap)(nil)
var _ position.GetSetter = (*oramBackedMap)(nil)

func (m *oramBackedMap) initLeaf(id uint64) uint32 {
	// Same splitmix-style PRF as position.Sparse (via a throwaway Sparse).
	return position.NewSparse(m.numBlocks, m.numLeaves, m.seed).Get(id)
}

// GetSet reads and replaces one position in a single ORAM access.
func (m *oramBackedMap) GetSet(id uint64, newLeaf uint32) uint32 {
	if id >= m.numBlocks {
		panic(fmt.Sprintf("pathoram: recursive map id %d out of range %d", id, m.numBlocks))
	}
	if newLeaf >= m.numLeaves {
		panic(fmt.Sprintf("pathoram: recursive map leaf %d out of range %d", newLeaf, m.numLeaves))
	}
	block, slot := id/uint64(m.epb), int(id%uint64(m.epb))
	var old uint32
	var fresh bool
	d, err := m.store.Update(block, func(data []byte) {
		fresh = !entryAssigned(data, slot)
		old = entryLeaf(data, slot)
		setEntry(data, slot, newLeaf)
	})
	m.time += d
	if err != nil {
		panic(fmt.Sprintf("pathoram: recursive map update: %v", err))
	}
	if fresh {
		old = m.initLeaf(id)
	}
	return old
}

// Get implements position.Map (costs one ORAM access; prefer GetSet).
func (m *oramBackedMap) Get(id uint64) uint32 {
	if id >= m.numBlocks {
		panic(fmt.Sprintf("pathoram: recursive map id %d out of range %d", id, m.numBlocks))
	}
	block, slot := id/uint64(m.epb), int(id%uint64(m.epb))
	var out uint32
	var fresh bool
	d, err := m.store.Update(block, func(data []byte) {
		fresh = !entryAssigned(data, slot)
		out = entryLeaf(data, slot)
	})
	m.time += d
	if err != nil {
		panic(fmt.Sprintf("pathoram: recursive map get: %v", err))
	}
	if fresh {
		return m.initLeaf(id)
	}
	return out
}

// Set implements position.Map.
func (m *oramBackedMap) Set(id uint64, leaf uint32) { m.GetSet(id, leaf) }

// NumLeaves implements position.Map.
func (m *oramBackedMap) NumLeaves() uint32 { return m.numLeaves }

// SizeBytes implements position.Map.
func (m *oramBackedMap) SizeBytes() uint64 { return m.numBlocks * 4 }

// Stored-entry codec: little-endian uint32 with the top bit as the
// "assigned" flag.
const assignedBit = uint32(1) << 31

func entryRaw(data []byte, slot int) uint32 {
	off := slot * 4
	return uint32(data[off]) | uint32(data[off+1])<<8 |
		uint32(data[off+2])<<16 | uint32(data[off+3])<<24
}

func entryAssigned(data []byte, slot int) bool {
	return entryRaw(data, slot)&assignedBit != 0
}

func entryLeaf(data []byte, slot int) uint32 {
	return entryRaw(data, slot) &^ assignedBit
}

func setEntry(data []byte, slot int, leaf uint32) {
	v := leaf | assignedBit
	off := slot * 4
	data[off] = byte(v)
	data[off+1] = byte(v >> 8)
	data[off+2] = byte(v >> 16)
	data[off+3] = byte(v >> 24)
}
