package pathoram

import (
	"fmt"
	"time"

	"repro/internal/paged"
	"repro/internal/persist"
	"repro/internal/position"
)

// Snapshot/Restore cover the ORAM's dynamic state: the stash, the
// position map, the per-bucket write counters (group-encryption IVs),
// the leaf-assignment RNG, and the event counters. Bucket bytes live on
// the backing device and are captured by the device's own snapshot;
// restore both together. ORAMs built with an external position map
// (the recursive construction) snapshot everything EXCEPT the map —
// the next smaller ORAM owns that state and snapshots it itself.

const pathSnapshotVersion = 1

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (o *ORAM) Snapshot() ([]byte, error) { return persist.Build(o.SnapshotTo) }

// SnapshotSize bounds the bytes SnapshotTo appends: the fixed fields
// and RNG blob (under 128 bytes), the stash and (owned) position map
// sections, and one record per bucket counter.
func (o *ORAM) SnapshotSize() int {
	n := 128 + 8 + o.stash.SnapshotSize() + 8
	if posSnap, ok := o.pos.(position.Snapshotter); ok && o.cfg.PositionMap == nil {
		n += posSnap.SnapshotSize()
	}
	return n + o.counters.Len()*(4+8)
}

// SnapshotTo appends the ORAM's dynamic state.
func (o *ORAM) SnapshotTo(e *persist.Encoder) error {
	ownPos := o.cfg.PositionMap == nil
	posSnap, ok := o.pos.(position.Snapshotter)
	if ownPos && !ok {
		return fmt.Errorf("pathoram: position map %T does not support snapshots", o.pos)
	}
	e.Grow(o.SnapshotSize())
	e.U8(pathSnapshotVersion)
	// Geometry guard.
	e.U64(o.cfg.NumBlocks)
	e.U32(uint32(o.cfg.BlockSize))
	e.U32(uint32(o.cfg.BucketSlots))
	e.U32(uint32(o.levels))
	e.U32(o.leaves)
	e.U64(o.cfg.BaseAddr)
	e.Bool(o.cfg.Phantom)
	e.Bool(ownPos)
	// Event counters.
	e.U64(o.stats.Accesses)
	e.U64(o.stats.BucketReads)
	e.U64(o.stats.BucketWrite)
	e.I64(int64(o.stats.Time))
	e.Bytes(o.src.Snapshot())
	m := e.BeginBytes()
	if err := o.stash.SnapshotTo(e); err != nil {
		return fmt.Errorf("pathoram: stash: %w", err)
	}
	e.EndBytes(m)
	m = e.BeginBytes() // empty when the next smaller ORAM owns the map
	if ownPos {
		if err := posSnap.SnapshotTo(e); err != nil {
			return fmt.Errorf("pathoram: position map: %w", err)
		}
	}
	e.EndBytes(m)
	// Per-bucket write counters, in ascending bucket index.
	e.U64(uint64(o.counters.Len()))
	o.counters.Range(func(idx, ctr uint64) {
		e.U32(uint32(idx))
		e.U64(ctr)
	})
	return nil
}

// Restore replaces the ORAM's dynamic state with a snapshot taken from
// an identically configured instance.
func (o *ORAM) Restore(b []byte) error {
	d := persist.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != pathSnapshotVersion {
		return fmt.Errorf("pathoram: unsupported snapshot version %d", v)
	}
	numBlocks := d.U64()
	blockSize := d.U32()
	bucketSlots := d.U32()
	levels := d.U32()
	leaves := d.U32()
	baseAddr := d.U64()
	phantom := d.Bool()
	ownPos := d.Bool()
	if d.Err() == nil {
		if numBlocks != o.cfg.NumBlocks || int(blockSize) != o.cfg.BlockSize ||
			int(bucketSlots) != o.cfg.BucketSlots || int(levels) != o.levels ||
			leaves != o.leaves || baseAddr != o.cfg.BaseAddr || phantom != o.cfg.Phantom {
			return fmt.Errorf("pathoram: snapshot geometry (N=%d bs=%d Z=%d levels=%d leaves=%d base=%d phantom=%v) does not match this ORAM",
				numBlocks, blockSize, bucketSlots, levels, leaves, baseAddr, phantom)
		}
		if ownPos != (o.cfg.PositionMap == nil) {
			return fmt.Errorf("pathoram: snapshot position-map ownership (own=%v) does not match this ORAM", ownPos)
		}
	}
	var st Stats
	st.Accesses = d.U64()
	st.BucketReads = d.U64()
	st.BucketWrite = d.U64()
	st.Time = time.Duration(d.I64())
	rngBlob := d.Bytes()
	stashBlob := d.Bytes()
	posBlob := d.Bytes()
	n := d.U64()
	var counters paged.Table[uint64]
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		idx := d.U32()
		counters.Set(uint64(idx), d.U64())
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("pathoram: snapshot: %w", err)
	}

	if err := o.src.Restore(rngBlob); err != nil {
		return fmt.Errorf("pathoram: rng: %w", err)
	}
	if err := o.stash.Restore(stashBlob); err != nil {
		return fmt.Errorf("pathoram: stash: %w", err)
	}
	if ownPos {
		if err := o.pos.(position.Snapshotter).Restore(posBlob); err != nil {
			return fmt.Errorf("pathoram: position map: %w", err)
		}
	}
	o.stats = st
	o.counters = counters
	return nil
}
