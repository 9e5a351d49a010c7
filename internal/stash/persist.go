package stash

import (
	"fmt"

	"repro/internal/persist"
)

const stashSnapshotVersion = 1

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (s *Stash) Snapshot() ([]byte, error) { return persist.Build(s.SnapshotTo) }

// SnapshotSize is the number of bytes SnapshotTo appends.
func (s *Stash) SnapshotSize() int {
	n := 1 + 8 + 8 + 8
	for _, b := range s.blocks {
		n += 8 + 4 + 8 + len(b.Data)
	}
	return n
}

// SnapshotTo appends the resident blocks (sorted by ID for determinism)
// plus the high-water mark. Capacity is configuration, recorded only as
// a restore-time guard.
func (s *Stash) SnapshotTo(e *persist.Encoder) error {
	e.Grow(s.SnapshotSize())
	e.U8(stashSnapshotVersion)
	e.I64(int64(s.capacity))
	e.I64(int64(s.peak))
	ids := s.IDs()
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		b := s.blocks[id]
		e.U64(b.ID)
		e.U32(b.Leaf)
		e.Bytes(b.Data)
	}
	return nil
}

// Restore replaces the stash contents with a snapshot taken from a
// same-capacity stash.
func (s *Stash) Restore(b []byte) error {
	d := persist.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != stashSnapshotVersion {
		return fmt.Errorf("stash: unsupported snapshot version %d", v)
	}
	capacity := int(d.I64())
	peak := int(d.I64())
	n := d.U64()
	if d.Err() == nil && capacity != s.capacity {
		return fmt.Errorf("stash: snapshot capacity %d != stash capacity %d", capacity, s.capacity)
	}
	if d.Err() == nil && s.capacity > 0 && n > uint64(s.capacity) {
		return fmt.Errorf("stash: snapshot holds %d blocks, capacity %d", n, s.capacity)
	}
	blocks := make(map[uint64]*Block, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		blk := &Block{ID: d.U64(), Leaf: d.U32()}
		data := d.Bytes()
		if len(data) > 0 {
			blk.Data = data
		}
		if d.Err() == nil {
			blocks[blk.ID] = blk
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("stash: snapshot: %w", err)
	}
	s.blocks = blocks
	s.peak = peak
	return nil
}
