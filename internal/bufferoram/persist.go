package bufferoram

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/persist"
)

// Snapshot/Restore cover the buffer's round-scoped allocation state (the
// key→slot table and the free list, preserved in LIFO order so slot
// assignment resumes identically), the round counter, the dummy-access
// RNG, and the inner Path ORAM. The DRAM device that backs the inner
// ORAM is captured separately by the controller.

const bufferSnapshotVersion = 1

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (b *Buffer) Snapshot() ([]byte, error) { return persist.Build(b.SnapshotTo) }

// SnapshotSize bounds the bytes SnapshotTo appends: the fixed fields
// and RNG blob (under 128 bytes), one record per occupied and per free
// slot, and the inner ORAM's section.
func (b *Buffer) SnapshotSize() int {
	return 128 + len(b.slotOf)*(8+4) + len(b.free)*4 + 8 + b.oram.SnapshotSize()
}

// SnapshotTo appends the buffer's dynamic state.
func (b *Buffer) SnapshotTo(e *persist.Encoder) error {
	e.Grow(b.SnapshotSize())
	e.U8(bufferSnapshotVersion)
	// Geometry guard.
	e.U32(uint32(b.dim))
	e.U32(uint32(b.stateLen))
	e.U32(uint32(b.capacity))
	e.U64(b.round)
	e.Bytes(b.src.Snapshot())
	// Occupied slots, sorted by key for deterministic encoding.
	keys := make([]uint64, 0, len(b.slotOf))
	for k := range b.slotOf {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.U64(uint64(len(keys)))
	for _, k := range keys {
		e.U64(k)
		e.U32(uint32(b.slotOf[k]))
	}
	// Free list in stack order — allocation pops from the tail.
	e.U64(uint64(len(b.free)))
	for _, slot := range b.free {
		e.U32(uint32(slot))
	}
	m := e.BeginBytes()
	if err := b.oram.SnapshotTo(e); err != nil {
		return fmt.Errorf("bufferoram: inner oram: %w", err)
	}
	e.EndBytes(m)
	return nil
}

// Restore replaces the buffer's dynamic state with a snapshot taken from
// an identically configured instance.
func (b *Buffer) Restore(blob []byte) error {
	d := persist.NewDecoder(blob)
	if v := d.U8(); d.Err() == nil && v != bufferSnapshotVersion {
		return fmt.Errorf("bufferoram: unsupported snapshot version %d", v)
	}
	dim := d.U32()
	stateLen := d.U32()
	capacity := d.U32()
	if d.Err() == nil {
		if int(dim) != b.dim || int(stateLen) != b.stateLen || int(capacity) != b.capacity {
			return fmt.Errorf("bufferoram: snapshot geometry (dim=%d state=%d cap=%d) does not match this buffer",
				dim, stateLen, capacity)
		}
	}
	round := d.U64()
	rngBlob := d.Bytes()
	// Every slot in [0, capacity) is one row's or free, exactly once: an
	// aliased slot would let one row's Load overwrite another's entry.
	seen := make([]bool, b.capacity)
	claim := func(slot uint32) error {
		if int(slot) >= b.capacity || seen[slot] {
			return fmt.Errorf("bufferoram: snapshot slot %d out of range %d or named twice", slot, b.capacity)
		}
		seen[slot] = true
		return nil
	}
	nSlots := d.Count(8+4, "slots") // a row and its slot
	slotOf := make(map[uint64]int, nSlots)
	for i := 0; i < nSlots && d.Err() == nil; i++ {
		k := d.U64()
		slot := d.U32()
		if d.Err() == nil {
			if err := claim(slot); err != nil {
				return err
			}
			slotOf[k] = int(slot)
		}
	}
	nFree := d.Count(4, "free slots")
	free := make([]int, 0, nFree)
	for i := 0; i < nFree && d.Err() == nil; i++ {
		slot := d.U32()
		if d.Err() == nil {
			if err := claim(slot); err != nil {
				return err
			}
			free = append(free, int(slot))
		}
	}
	oramBlob := d.Bytes()
	if err := d.Err(); err != nil {
		return fmt.Errorf("bufferoram: snapshot: %w", err)
	}
	if uint64(len(slotOf))+uint64(len(free)) != uint64(b.capacity) {
		return fmt.Errorf("bufferoram: snapshot accounts for %d+%d slots, capacity %d",
			len(slotOf), len(free), b.capacity)
	}

	// The RNG goes into a fresh source and the inner ORAM (unchanged when
	// it refuses) last, so a refused section leaves the buffer as it was.
	src := persist.NewSource(0)
	if err := src.Restore(rngBlob); err != nil {
		return fmt.Errorf("bufferoram: rng: %w", err)
	}
	if err := b.oram.Restore(oramBlob); err != nil {
		return fmt.Errorf("bufferoram: inner oram: %w", err)
	}
	b.src, b.rng = src, rand.New(src)
	b.round = round
	b.slotOf = slotOf
	b.free = free
	return nil
}
