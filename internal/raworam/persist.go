package raworam

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/persist"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tree"
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
	if posSnap, ok := o.pos.(position.Checkpointable); ok {
		n += posSnap.SnapshotSize()
	}
	bmLen := (o.cfg.BucketSlots + 7) / 8
	return n + len(o.vtree)*(4+8+bmLen) + o.tree.Written()*(4+8)
}

// SnapshotTo appends the ORAM's dynamic state.
func (o *ORAM) SnapshotTo(e *persist.Encoder) error {
	posSnap, ok := o.pos.(position.Checkpointable)
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
	e.U32(uint32(o.tree.Levels()))
	e.U32(o.tree.Leaves())
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
	o.tree.EncodeCounters(e)
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
			int(levels) != o.tree.Levels() || leaves != o.tree.Leaves() || phantom != o.cfg.Phantom {
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
	nV := d.Count(4+8, "VTree") // an index and a bitmap's length, at least
	vtree := make(map[uint32][]byte, nV)
	bmLen := (o.cfg.BucketSlots + 7) / 8
	for i := 0; i < nV && d.Err() == nil; i++ {
		idx := d.U32()
		bm := d.Bytes()
		if d.Err() == nil {
			if len(bm) != bmLen {
				return fmt.Errorf("raworam: snapshot VTree bitmap %d has %d bytes, want %d", idx, len(bm), bmLen)
			}
			vtree[idx] = bm
		}
	}
	counters, err := tree.DecodeCounters(d)
	if err != nil {
		return fmt.Errorf("raworam: snapshot: %w", err)
	}
	// The VTree names exactly the written buckets: a lookup reads the
	// bitmap of every written bucket on its path.
	if len(vtree) != counters.Len() {
		return fmt.Errorf("raworam: snapshot VTree has %d bitmaps for %d written buckets", len(vtree), counters.Len())
	}
	for idx := range vtree {
		if counters.At(uint64(idx)) == 0 {
			return fmt.Errorf("raworam: snapshot VTree bitmap %d is for a bucket never written", idx)
		}
	}

	// Decode validated; the sub-restores guard their own geometry. The
	// RNG and stash are restored into fresh ones and the position map in
	// place, last, so a section refused anywhere changes nothing.
	src := persist.NewSource(0)
	if err := src.Restore(rngBlob); err != nil {
		return fmt.Errorf("raworam: rng: %w", err)
	}
	stashed := stash.New(o.stash.Capacity())
	if err := stashed.Restore(stashBlob); err != nil {
		return fmt.Errorf("raworam: stash: %w", err)
	}
	if err := o.pos.(position.Checkpointable).Restore(posBlob); err != nil {
		return fmt.Errorf("raworam: position map: %w", err)
	}
	o.src, o.rng, o.stash = src, rand.New(src), stashed
	o.evictCount = evictCount
	o.pendingWrites = int(pendingWrites)
	o.stats = st
	o.vtree = vtree
	o.tree.SetCounters(counters)
	return nil
}
