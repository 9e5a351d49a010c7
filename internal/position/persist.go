package position

import (
	"fmt"

	"repro/internal/paged"
	"repro/internal/persist"
)

// Snapshotter is implemented by position maps that can be checkpointed.
// Both built-in implementations qualify; ORAM-backed recursive maps do
// not (their state lives in the backing ORAM, which snapshots itself).
type Snapshotter interface {
	SnapshotSize() int
	SnapshotTo(e *persist.Encoder) error
	Restore([]byte) error
}

const (
	denseSnapshotVersion  = 1
	sparseSnapshotVersion = 1
)

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (d *Dense) Snapshot() ([]byte, error) { return persist.Build(d.SnapshotTo) }

// SnapshotSize is the number of bytes SnapshotTo appends.
func (d *Dense) SnapshotSize() int { return 1 + 4 + 8 + 4*len(d.pos) }

// SnapshotTo appends the full leaf assignment.
func (d *Dense) SnapshotTo(e *persist.Encoder) error {
	e.Grow(d.SnapshotSize())
	e.U8(denseSnapshotVersion)
	e.U32(d.leaves)
	e.U64(uint64(len(d.pos)))
	for _, leaf := range d.pos {
		e.U32(leaf)
	}
	return nil
}

// Restore replaces the assignment from a snapshot taken over a map of
// the same geometry.
func (d *Dense) Restore(b []byte) error {
	dec := persist.NewDecoder(b)
	if v := dec.U8(); dec.Err() == nil && v != denseSnapshotVersion {
		return fmt.Errorf("position: unsupported dense snapshot version %d", v)
	}
	leaves := dec.U32()
	n := dec.U64()
	if dec.Err() == nil && (leaves != d.leaves || n != uint64(len(d.pos))) {
		return fmt.Errorf("position: snapshot geometry (%d blocks, %d leaves) != map (%d, %d)",
			n, leaves, len(d.pos), d.leaves)
	}
	pos := make([]uint32, n)
	for i := range pos {
		pos[i] = dec.U32()
		if pos[i] >= leaves {
			return fmt.Errorf("position: snapshot leaf %d out of range %d", pos[i], leaves)
		}
	}
	if err := dec.Err(); err != nil {
		return fmt.Errorf("position: dense snapshot: %w", err)
	}
	copy(d.pos, pos)
	return nil
}

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (s *Sparse) Snapshot() ([]byte, error) { return persist.Build(s.SnapshotTo) }

// SnapshotSize is the number of bytes SnapshotTo appends.
func (s *Sparse) SnapshotSize() int { return 1 + 8 + 4 + 8 + 8 + 12*s.dirty.Len() }

// SnapshotTo appends the PRF parameters and the dirty overlay (sorted
// by ID so encoding is deterministic).
func (s *Sparse) SnapshotTo(e *persist.Encoder) error {
	e.Grow(s.SnapshotSize())
	e.U8(sparseSnapshotVersion)
	e.U64(s.numBlocks)
	e.U32(s.leaves)
	e.U64(s.seed)
	e.U64(uint64(s.dirty.Len()))
	s.dirty.Range(func(id uint64, v uint32) {
		e.U64(id)
		e.U32(v - 1)
	})
	return nil
}

// Restore replaces the overlay from a snapshot of a same-geometry map.
func (s *Sparse) Restore(b []byte) error {
	dec := persist.NewDecoder(b)
	if v := dec.U8(); dec.Err() == nil && v != sparseSnapshotVersion {
		return fmt.Errorf("position: unsupported sparse snapshot version %d", v)
	}
	numBlocks := dec.U64()
	leaves := dec.U32()
	seed := dec.U64()
	if dec.Err() == nil && (numBlocks != s.numBlocks || leaves != s.leaves || seed != s.seed) {
		return fmt.Errorf("position: snapshot geometry (%d blocks, %d leaves, seed %d) != map (%d, %d, %d)",
			numBlocks, leaves, seed, s.numBlocks, s.leaves, s.seed)
	}
	n := dec.U64()
	var dirty paged.Table[uint32]
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		id := dec.U64()
		leaf := dec.U32()
		if dec.Err() == nil {
			if id >= numBlocks || leaf >= leaves {
				return fmt.Errorf("position: snapshot entry (%d→%d) out of range", id, leaf)
			}
			dirty.Set(id, leaf+1)
		}
	}
	if err := dec.Err(); err != nil {
		return fmt.Errorf("position: sparse snapshot: %w", err)
	}
	s.dirty = dirty
	return nil
}
