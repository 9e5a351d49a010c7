package raworam

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/persist"
	"repro/internal/position"
)

// Snapshot/Restore cover everything that evolves as the main ORAM runs:
// the VTree valid bitmaps, the per-bucket write counters, the root
// counter (the global EO count g), the eviction phase (write-backs since
// the last EO), the stash, the position map, the path-reassignment RNG,
// and the event counters. The tree's bucket BYTES live on the SSD device
// and are captured by the device's own snapshot; the two must be taken
// and restored together, which the fedora controller does.

const oramSnapshotVersion = 1

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (o *ORAM) Snapshot() ([]byte, error) { return persist.Build(o.SnapshotTo) }

// SnapshotSize bounds the bytes SnapshotTo appends: the fixed fields
// and RNG blob (under 128 bytes), the stash and position map sections,
// and one record per VTree bitmap and per bucket counter.
func (o *ORAM) SnapshotSize() int {
	n := 128 + 8 + o.stash.SnapshotSize() + 8
	if posSnap, ok := o.pos.(position.Snapshotter); ok {
		n += posSnap.SnapshotSize()
	}
	bmLen := (o.cfg.BucketSlots + 7) / 8
	return n + len(o.vtree)*(4+8+bmLen) + len(o.counters)*(4+8)
}

// SnapshotTo appends the ORAM's dynamic state.
func (o *ORAM) SnapshotTo(e *persist.Encoder) error {
	posSnap, ok := o.pos.(position.Snapshotter)
	if !ok {
		return fmt.Errorf("raworam: position map %T does not support snapshots", o.pos)
	}
	e.Grow(o.SnapshotSize())
	e.U8(oramSnapshotVersion)
	// Geometry guard: a snapshot only restores into an identically
	// configured ORAM.
	e.U64(o.cfg.NumBlocks)
	e.U32(uint32(o.cfg.BlockSize))
	e.U32(uint32(o.cfg.BucketSlots))
	e.U32(uint32(o.cfg.EvictPeriod))
	e.U32(uint32(o.levels))
	e.U32(o.leaves)
	e.Bool(o.cfg.Phantom)
	// Eviction schedule position: the root counter g and the phase
	// within the current eviction period.
	e.U64(o.evictCount)
	e.U32(uint32(o.pendingWrites))
	// Event counters.
	e.U64(o.stats.AOAccesses)
	e.U64(o.stats.EOAccesses)
	e.U64(o.stats.WriteBacks)
	e.I64(int64(o.stats.Time))
	e.Bytes(o.src.Snapshot())
	m := e.BeginBytes()
	if err := o.stash.SnapshotTo(e); err != nil {
		return fmt.Errorf("raworam: stash: %w", err)
	}
	e.EndBytes(m)
	m = e.BeginBytes()
	if err := posSnap.SnapshotTo(e); err != nil {
		return fmt.Errorf("raworam: position map: %w", err)
	}
	e.EndBytes(m)
	// VTree bitmaps, sorted by bucket index.
	vIdxs := make([]uint32, 0, len(o.vtree))
	for idx := range o.vtree {
		vIdxs = append(vIdxs, idx)
	}
	sort.Slice(vIdxs, func(i, j int) bool { return vIdxs[i] < vIdxs[j] })
	e.U64(uint64(len(vIdxs)))
	for _, idx := range vIdxs {
		e.U32(idx)
		e.Bytes(o.vtree[idx])
	}
	// Per-bucket write counters, sorted by bucket index.
	cIdxs := make([]uint32, 0, len(o.counters))
	for idx := range o.counters {
		cIdxs = append(cIdxs, idx)
	}
	sort.Slice(cIdxs, func(i, j int) bool { return cIdxs[i] < cIdxs[j] })
	e.U64(uint64(len(cIdxs)))
	for _, idx := range cIdxs {
		e.U32(idx)
		e.U64(o.counters[idx])
	}
	return nil
}

// Restore replaces the ORAM's dynamic state with a snapshot taken from
// an identically configured instance. The caller restores the backing
// SSD device separately (the bucket bytes live there).
func (o *ORAM) Restore(b []byte) error {
	d := persist.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != oramSnapshotVersion {
		return fmt.Errorf("raworam: unsupported snapshot version %d", v)
	}
	numBlocks := d.U64()
	blockSize := d.U32()
	bucketSlots := d.U32()
	evictPeriod := d.U32()
	levels := d.U32()
	leaves := d.U32()
	phantom := d.Bool()
	if d.Err() == nil {
		if numBlocks != o.cfg.NumBlocks || int(blockSize) != o.cfg.BlockSize ||
			int(bucketSlots) != o.cfg.BucketSlots || int(evictPeriod) != o.cfg.EvictPeriod ||
			int(levels) != o.levels || leaves != o.leaves || phantom != o.cfg.Phantom {
			return fmt.Errorf("raworam: snapshot geometry (N=%d bs=%d Z=%d A=%d levels=%d leaves=%d phantom=%v) does not match this ORAM",
				numBlocks, blockSize, bucketSlots, evictPeriod, levels, leaves, phantom)
		}
	}
	evictCount := d.U64()
	pendingWrites := d.U32()
	var st Stats
	st.AOAccesses = d.U64()
	st.EOAccesses = d.U64()
	st.WriteBacks = d.U64()
	st.Time = time.Duration(d.I64())
	rngBlob := d.Bytes()
	stashBlob := d.Bytes()
	posBlob := d.Bytes()
	nV := d.U64()
	vtree := make(map[uint32][]byte, nV)
	bmLen := (o.cfg.BucketSlots + 7) / 8
	for i := uint64(0); i < nV && d.Err() == nil; i++ {
		idx := d.U32()
		bm := d.Bytes()
		if d.Err() == nil {
			if len(bm) != bmLen {
				return fmt.Errorf("raworam: snapshot VTree bitmap %d has %d bytes, want %d", idx, len(bm), bmLen)
			}
			vtree[idx] = bm
		}
	}
	nC := d.U64()
	counters := make(map[uint32]uint64, nC)
	for i := uint64(0); i < nC && d.Err() == nil; i++ {
		idx := d.U32()
		counters[idx] = d.U64()
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("raworam: snapshot: %w", err)
	}

	// Decode validated; apply sub-restores (each guards its own geometry).
	if err := o.src.Restore(rngBlob); err != nil {
		return fmt.Errorf("raworam: rng: %w", err)
	}
	if err := o.stash.Restore(stashBlob); err != nil {
		return fmt.Errorf("raworam: stash: %w", err)
	}
	if err := o.pos.(position.Snapshotter).Restore(posBlob); err != nil {
		return fmt.Errorf("raworam: position map: %w", err)
	}
	o.evictCount = evictCount
	o.pendingWrites = int(pendingWrites)
	o.stats = st
	o.vtree = vtree
	o.counters = counters
	return nil
}
