// Package raworam implements FEDORA's custom variant of RAW ORAM
// (Fletcher et al., FCCM'15), the SSD-resident main ORAM of the paper
// (Sec 4.4).
//
// RAW ORAM splits accesses into two kinds:
//
//   - AO (access-only): performed on every block request. The whole path
//     is read into a DRAM path buffer, the requested block is extracted,
//     and only that block's valid flag is cleared — nothing is written
//     back to the tree.
//   - EO (eviction-only): performed once every A AO accesses (A is the
//     eviction period). A path chosen in deterministic reverse-
//     lexicographic order is read, merged with the stash, and written
//     back full.
//
// FEDORA's three optimizations on top (all implemented here):
//
//  1. FL-friendly schedule: during the round's download phase the main
//     ORAM is read-only and every block read immediately leaves for the
//     buffer ORAM, so the stash stays empty and *no* EO accesses are
//     needed (AOAccess). During the upload phase blocks come back from
//     the buffer ORAM, so no AO access is needed — only an EO every A
//     write-backs (WriteBack).
//  2. VTree: the per-slot valid flags are mirrored into a small
//     DRAM-resident tree so that AO accesses never write to the SSD.
//  3. Large eviction period: the stash and path buffer live in DRAM,
//     which permits large A (the paper reaches A=92 with 4 KB buckets),
//     cutting EO frequency — and hence SSD writes — to ~1%.
//
// Bucket freshness needs no Merkle tree: buckets are written only by EO
// accesses in a predetermined order, so a single root counter (the
// global EO count, held in the TEE scratchpad) determines every bucket's
// write count (Sec 5.2). The simulator keeps the derived per-bucket
// counters host-side with identical semantics.
//
// Key invariants (Sec 4.4): AO accesses never write the tree — only the
// scheduled EO evictions do, which is what makes the schedule
// SSD-friendly; every block is either on its assigned path or in the
// DRAM stash; and eviction order follows the deterministic reverse-
// lexicographic schedule, so write traffic is independent of the access
// pattern.
package raworam

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"repro/internal/device"
	"repro/internal/pathoram"
	"repro/internal/persist"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tee"
)

// slotMetaSize is the serialized per-slot metadata: 8-byte ID + 4-byte
// leaf (the valid flag lives in the VTree, not in the SSD image).
const slotMetaSize = 12

const invalidBlockID = ^uint64(0)

// Config parameterizes the main ORAM.
type Config struct {
	// NumBlocks is N (embedding rows).
	NumBlocks uint64
	// BlockSize is the payload bytes per block (64–256 in the paper).
	BlockSize int
	// BucketSlots is Z. If zero, it is derived so the stored bucket fills
	// one SSD page (the paper's 4 KB buckets, Sec 6.6).
	BucketSlots int
	// EvictPeriod is A: one EO access per A block write-backs. If zero, a
	// default of ~1.4×Z is derived, matching the paper's tuned A≈92 for
	// 64-byte blocks in 4 KB buckets.
	EvictPeriod int
	// Amplification is total-tree-slots / N; RAW/Ring-style trees use
	// 1.5–2 (paper Sec 3.2). Default 2.
	Amplification float64
	// StashCapacity bounds the DRAM stash; 0 derives a safe default.
	StashCapacity int
	// Seed drives path reassignment.
	Seed int64
	// Engine encrypts SSD buckets; nil stores plaintext.
	Engine *tee.Engine
	// Phantom enables accounting-only mode (no payloads, same traffic).
	Phantom bool
	// HasScratchpad models the 4 KB on-chip scratch space of Sec 6.6.
	// With it, EO bucket assembly scans the stash once per bucket; without
	// it, assembly needs one oblivious stash scan per slot (Fig 10).
	HasScratchpad bool
	// InitFn supplies initial contents of never-written blocks.
	InitFn func(id uint64) []byte
}

func (c *Config) validate() error {
	if c.NumBlocks == 0 {
		return errors.New("raworam: NumBlocks must be positive")
	}
	if c.BlockSize <= 0 {
		return errors.New("raworam: BlockSize must be positive")
	}
	if c.Amplification < 1 {
		return errors.New("raworam: Amplification must be >= 1")
	}
	return nil
}

// Stats counts ORAM-level events.
type Stats struct {
	AOAccesses uint64
	EOAccesses uint64
	WriteBacks uint64
	Time       time.Duration
}

// ORAM is the SSD-resident main ORAM plus its DRAM-side structures.
type ORAM struct {
	cfg  Config
	ssd  device.Device
	dram device.Device

	pos   position.Map
	stash *stash.Stash
	src   *persist.Source // checkpointable state behind rng
	rng   *rand.Rand

	levels     int
	leaves     uint32
	bucketSize int // stored bucket bytes on SSD (page aligned)

	// vtree holds per-bucket valid bitmaps, lazily materialized; absent
	// means all-invalid (tree starts empty; reads fall back to InitFn).
	vtree map[uint32][]byte
	// counters: per-bucket write counts, derived from EO order; host-side
	// stand-in for the root-counter scheme.
	counters map[uint32]uint64
	// evictCount is g, the global EO counter (the root counter).
	evictCount uint64
	// pendingWrites counts write-backs since the last EO.
	pendingWrites int

	// One bucket in flight, reused by every access: the SSD image as read
	// or written (bucketSize bytes) and the plaintext being packed for a
	// write. Nothing returned to a caller aliases them.
	stored []byte
	plain  []byte

	// The DRAM path buffer of Sec 4.4: one plaintext bucket per tree level,
	// pathIdx naming the bucket each slot holds (noBucket when empty).
	// Every bucket read goes through it (readBucket). It is emptied at the
	// start of each batch, lookup and eviction, so nothing in it outlives
	// the operation that fetched and authenticated it.
	pathBuf []byte
	pathIdx []uint32
	// reads is the batch read's work list, kept for its capacity.
	reads []batchRead

	stats Stats
}

// noBucket tags an empty path-buffer slot (no tree has 2^32-1 buckets).
const noBucket = ^uint32(0)

// batchRead is one id of an AOAccessBatch: where its payload goes in the
// caller's buffer and which path holds it.
type batchRead struct {
	id   uint64
	leaf uint32
	slot int
}

// New creates the main ORAM over an SSD (tree) and a DRAM (VTree, stash,
// path buffer) device.
func New(cfg Config, ssd, dram device.Device) (*ORAM, error) {
	if cfg.Amplification == 0 {
		cfg.Amplification = 2
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	o := &ORAM{cfg: cfg, ssd: ssd, dram: dram}
	pageSize := ssd.PageSize()
	if pageSize < 1 {
		pageSize = 1
	}
	if cfg.BucketSlots == 0 {
		// Fill one SSD page with slots (leaving room for the seal tag).
		avail := pageSize
		if cfg.Engine != nil {
			avail -= tee.TagSize
		}
		z := avail / (slotMetaSize + cfg.BlockSize)
		if z < 2 {
			z = 2
		}
		o.cfg.BucketSlots = z
	}
	if o.cfg.EvictPeriod == 0 {
		o.cfg.EvictPeriod = o.cfg.BucketSlots * 14 / 10
		if o.cfg.EvictPeriod < 1 {
			o.cfg.EvictPeriod = 1
		}
	}
	leaves, levels := pathoram.Geometry(cfg.NumBlocks, o.cfg.BucketSlots, o.cfg.Amplification)
	o.leaves, o.levels = leaves, levels
	plain := o.cfg.BucketSlots * (slotMetaSize + cfg.BlockSize)
	stored := plain
	if cfg.Engine != nil {
		stored = tee.SealedSize(plain)
	}
	if pageSize > 1 {
		stored = (stored + pageSize - 1) / pageSize * pageSize
	}
	o.bucketSize = stored
	if !cfg.Phantom {
		o.stored = make([]byte, stored)
		o.plain = make([]byte, plain)
		o.pathBuf = make([]byte, levels*stored)
		o.pathIdx = make([]uint32, levels)
	}
	if need := o.RequiredBytes(); ssd.Capacity() < need {
		return nil, fmt.Errorf("raworam: SSD capacity %d < required %d", ssd.Capacity(), need)
	}
	if o.cfg.StashCapacity == 0 {
		o.cfg.StashCapacity = o.cfg.BucketSlots*levels + 2*o.cfg.EvictPeriod + 128
	}
	o.stash = stash.New(o.cfg.StashCapacity)
	o.pos = position.NewSparse(cfg.NumBlocks, leaves, uint64(cfg.Seed)+1)
	o.src = persist.NewSource(cfg.Seed)
	o.rng = rand.New(o.src)
	o.vtree = make(map[uint32][]byte)
	o.counters = make(map[uint32]uint64)
	return o, nil
}

// RequiredBytes is the SSD footprint of the tree.
func (o *ORAM) RequiredBytes() uint64 {
	return uint64(2*o.leaves-1) * uint64(o.bucketSize)
}

// VTreeBytes is the DRAM footprint of the VTree: one valid bit per slot
// plus the group-encryption metadata of Sec 5.2.
func (o *ORAM) VTreeBytes() uint64 {
	numBuckets := uint64(2*o.leaves - 1)
	bitsPerBucket := uint64((o.cfg.BucketSlots + 7) / 8)
	payload := numBuckets * bitsPerBucket
	layout := tee.NewGroupLayout(tee.DefaultGroupSize, 2)
	return payload + uint64(float64(payload)*layout.OverheadRatio())
}

// Levels, Leaves, BucketSlots, EvictPeriod, BucketStoredSize expose the
// derived geometry.
func (o *ORAM) Levels() int           { return o.levels }
func (o *ORAM) Leaves() uint32        { return o.leaves }
func (o *ORAM) BucketSlots() int      { return o.cfg.BucketSlots }
func (o *ORAM) EvictPeriod() int      { return o.cfg.EvictPeriod }
func (o *ORAM) BucketStoredSize() int { return o.bucketSize }

// PathBytes is the SSD bytes of one full path transfer.
func (o *ORAM) PathBytes() uint64 {
	return uint64(o.levels) * uint64(o.bucketSize)
}

// Stats returns accumulated counters.
func (o *ORAM) Stats() Stats { return o.stats }

// ResetStats zeroes the ORAM counters.
func (o *ORAM) ResetStats() { o.stats = Stats{} }

// StashLen / StashPeak expose stash occupancy for invariant tests.
func (o *ORAM) StashLen() int  { return o.stash.Len() }
func (o *ORAM) StashPeak() int { return o.stash.Peak() }

// RootCounter returns g, the global EO count (the single counter the
// paper stores in the scratchpad, from which all bucket counters derive).
func (o *ORAM) RootCounter() uint64 { return o.evictCount }

func (o *ORAM) bucketIndex(leaf uint32, level int) uint32 {
	return (uint32(1) << level) - 1 + (leaf >> (o.levels - 1 - level))
}

func (o *ORAM) bucketAddr(idx uint32) uint64 {
	return uint64(idx) * uint64(o.bucketSize)
}

func (o *ORAM) randomLeaf() uint32 { return uint32(o.rng.Int63n(int64(o.leaves))) }

// evictionLeaf returns the leaf targeted by the g-th EO access: the
// reverse-lexicographic order of Gentry et al., which guarantees even
// coverage of the tree and makes bucket write counts a pure function of g.
func (o *ORAM) evictionLeaf(g uint64) uint32 {
	w := bits.Len32(o.leaves - 1) // log2(leaves)
	if w == 0 {
		return 0
	}
	return uint32(bits.Reverse32(uint32(g%uint64(o.leaves)))) >> (32 - w)
}

// slotStoredSize is the DRAM bytes per stash slot (metadata + payload).
func (o *ORAM) slotStoredSize() int { return slotMetaSize + 1 + o.cfg.BlockSize }

// stashScanBytes is one full oblivious pass over the stash in DRAM.
func (o *ORAM) stashScanBytes() uint64 {
	return uint64(o.cfg.StashCapacity) * uint64(o.slotStoredSize())
}

// vtreePathBytes approximates the DRAM traffic of touching one VTree
// path (valid bitmaps plus amortized encryption metadata).
func (o *ORAM) vtreePathBytes() uint64 {
	per := uint64((o.cfg.BucketSlots+7)/8) + tee.CounterSize
	return uint64(o.levels) * (per + tee.TagSize/2)
}

// chargeAO accounts the device traffic of one AO access and returns its
// modelled duration: SSD path read; DRAM path-buffer fill + scan; one
// stash presence scan; VTree path read+write.
func (o *ORAM) chargeAO() time.Duration {
	var d time.Duration
	pb := int(o.PathBytes())
	d += o.ssd.ChargeN(device.OpRead, o.bucketSize, o.levels)
	d += o.dram.Charge(device.OpWrite, 0, pb)                      // fill path buffer
	d += o.dram.Charge(device.OpRead, 0, pb)                       // scan for block
	d += o.dram.Charge(device.OpRead, 0, int(o.stashScanBytes()))  // stash presence scan
	d += o.dram.Charge(device.OpRead, 0, int(o.vtreePathBytes()))  // VTree path read
	d += o.dram.Charge(device.OpWrite, 0, int(o.vtreePathBytes())) // VTree path write
	return d
}

// chargeEO accounts the device traffic of one EO access: SSD path read +
// write; DRAM path buffer both ways; bucket assembly stash scans (1 per
// bucket with the scratchpad, Z per bucket without); VTree path update.
func (o *ORAM) chargeEO() time.Duration {
	var d time.Duration
	pb := int(o.PathBytes())
	d += o.ssd.ChargeN(device.OpRead, o.bucketSize, o.levels)
	d += o.ssd.ChargeN(device.OpWrite, o.bucketSize, o.levels)
	d += o.dram.Charge(device.OpWrite, 0, pb) // path into DRAM
	d += o.dram.Charge(device.OpRead, 0, pb)  // path back out
	scans := o.levels
	if !o.cfg.HasScratchpad {
		scans = o.levels * o.cfg.BucketSlots
	}
	d += o.dram.Charge(device.OpRead, 0, scans*int(o.stashScanBytes()))
	d += o.dram.Charge(device.OpRead, 0, int(o.vtreePathBytes()))
	d += o.dram.Charge(device.OpWrite, 0, int(o.vtreePathBytes()))
	return d
}

// AOAccess reads block id and *removes* it from the ORAM (its valid flag
// is cleared; the block is expected to move to the buffer ORAM, per
// FEDORA step ③). No SSD write occurs. Dummy accesses — the ε-FDP
// mechanism's k > k_union case — use AODummy instead. It is the batch of
// one; the result is the caller's to keep.
func (o *ORAM) AOAccess(id uint64) ([]byte, time.Duration, error) {
	data := make([]byte, o.cfg.BlockSize)
	ids := [1]uint64{id}
	d, err := o.AOAccessBatch(ids[:], data)
	if err != nil {
		return nil, d, err
	}
	return data, d, nil
}

// AOAccessBatch is len(ids) AO accesses whose path reads are merged: it
// fills dst — len(ids)×BlockSize caller-owned bytes — with the payloads in
// request order and removes every block from the ORAM, exactly as one
// AOAccess per id would, and charges the devices one full path per id
// (the modelled cost is the paper's per-access cost; the returned
// duration is their sum). What is merged is the host-side work: the tree
// lookups run in ascending-leaf order through the path buffer, so each
// written bucket on the union of the paths is fetched, authenticated and
// decrypted once per batch, not once per path through it. The download
// phase never writes the tree (Sec 4.4), which is what makes a bucket read
// once good for the whole batch.
//
// An out-of-range or repeated id fails the batch before any state
// changes (phantom mode, which keeps no per-block state a repeat could
// corrupt, does not look for repeats). A device or authentication error
// aborts it midway: blocks already resolved are gone from the ORAM and dst
// is partly filled, as after a failed access in a sequence of single ones.
func (o *ORAM) AOAccessBatch(ids []uint64, dst []byte) (time.Duration, error) {
	bs := o.cfg.BlockSize
	if len(dst) != len(ids)*bs {
		return 0, fmt.Errorf("raworam: batch buffer is %d bytes, want %d ids × %d", len(dst), len(ids), bs)
	}
	for _, id := range ids {
		if id >= o.cfg.NumBlocks {
			return 0, fmt.Errorf("raworam: block %d out of range %d", id, o.cfg.NumBlocks)
		}
	}
	if !o.cfg.Phantom {
		// Ascending (leaf, id) is the lookup order below; it also puts a
		// repeated id next to itself.
		o.reads = o.reads[:0]
		for i, id := range ids {
			o.reads = append(o.reads, batchRead{id: id, leaf: o.pos.Get(id), slot: i})
		}
		slices.SortFunc(o.reads, func(a, b batchRead) int {
			if c := cmp.Compare(a.leaf, b.leaf); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		for i := 1; i < len(o.reads); i++ {
			if o.reads[i].id == o.reads[i-1].id {
				return 0, fmt.Errorf("raworam: block %d named twice in one batch", o.reads[i].id)
			}
		}
	}

	var d time.Duration
	for range ids {
		o.stats.AOAccesses++
		d += o.chargeAO()
	}
	o.stats.Time += d
	if o.cfg.Phantom {
		clear(dst)
		return d, nil
	}

	// Consecutive paths share their upper buckets and, in leaf order, a
	// level's bucket index never decreases: a slot that has moved on is
	// never wanted again, so one slot per level holds the whole union.
	o.resetPath()
	for _, r := range o.reads {
		out := dst[r.slot*bs : (r.slot+1)*bs]
		// Check the stash first: the block may be awaiting eviction from a
		// previous round's write-back.
		if blk := o.stash.Remove(r.id); blk != nil {
			copy(out, blk.Data)
			continue
		}
		// Scan the path for the block; clear its valid flag on hit.
		found, err := o.findOnPath(r.leaf, r.id, out, true)
		if err != nil {
			return d, err
		}
		if !found {
			o.initBlock(out, r.id)
		}
	}
	return d, nil
}

// AODummy performs an indistinguishable access to a random path without
// retrieving anything (FEDORA's dummy accesses, Sec 4.2).
func (o *ORAM) AODummy() (time.Duration, error) {
	o.stats.AOAccesses++
	d := o.chargeAO()
	o.stats.Time += d
	if o.cfg.Phantom {
		return d, nil
	}
	// Functionally a no-op: the path read is simulated by the charge; no
	// block is extracted and no flags change.
	return d, nil
}

// WriteBack returns a block to the ORAM with fresh contents (FEDORA step
// ⑦). The block gets a new random path and waits in the stash; every
// EvictPeriod write-backs one EO access drains stash blocks to the SSD.
// Callers must have removed the block via AOAccess first (the FEDORA
// round structure guarantees this); writing back a block whose stale
// copy is still valid in the tree is a protocol violation.
func (o *ORAM) WriteBack(id uint64, data []byte) (time.Duration, error) {
	if id >= o.cfg.NumBlocks {
		return 0, fmt.Errorf("raworam: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	if !o.cfg.Phantom && len(data) != o.cfg.BlockSize {
		return 0, fmt.Errorf("raworam: write size %d != block size %d", len(data), o.cfg.BlockSize)
	}
	o.stats.WriteBacks++
	var d time.Duration
	if !o.cfg.Phantom {
		newLeaf := o.randomLeaf()
		o.pos.Set(id, newLeaf)
		blk := o.stash.NewBlock(id, newLeaf, o.cfg.BlockSize)
		copy(blk.Data, data)
		if err := o.stash.Put(blk); err != nil {
			return 0, err
		}
		// One oblivious stash pass to insert without leaking the slot.
		d += o.dram.Charge(device.OpWrite, 0, int(o.stashScanBytes()))
	} else {
		d += o.dram.Charge(device.OpWrite, 0, int(o.stashScanBytes()))
	}
	o.pendingWrites++
	if o.pendingWrites >= o.cfg.EvictPeriod {
		o.pendingWrites = 0
		ed, err := o.evictOnce()
		d += ed
		if err != nil {
			o.stats.Time += d
			return d, err
		}
	}
	o.stats.Time += d
	return d, nil
}

// WriteBackDummy accounts a dummy write-back (k > k_union during step ⑦):
// the stash pass happens and the EO schedule advances, but no real block
// enters the stash.
func (o *ORAM) WriteBackDummy() (time.Duration, error) {
	o.stats.WriteBacks++
	d := o.dram.Charge(device.OpWrite, 0, int(o.stashScanBytes()))
	o.pendingWrites++
	if o.pendingWrites >= o.cfg.EvictPeriod {
		o.pendingWrites = 0
		ed, err := o.evictOnce()
		d += ed
		if err != nil {
			o.stats.Time += d
			return d, err
		}
	}
	o.stats.Time += d
	return d, nil
}

// evictOnce performs one EO access on the next deterministic path.
func (o *ORAM) evictOnce() (time.Duration, error) {
	o.stats.EOAccesses++
	d := o.chargeEO()
	leaf := o.evictionLeaf(o.evictCount)
	o.evictCount++
	if o.cfg.Phantom {
		return d, nil
	}
	// Read the path: surviving valid blocks join the stash.
	o.resetPath()
	for l := 0; l < o.levels; l++ {
		if err := o.loadBucketToStash(l, o.bucketIndex(leaf, l)); err != nil {
			return d, err
		}
	}
	// Write the path back leaf→root, greedily placing stash blocks.
	o.stash.BeginEviction(leaf, o.levels)
	for l := o.levels - 1; l >= 0; l-- {
		idx := o.bucketIndex(leaf, l)
		if err := o.storeBucket(idx, o.stash.Pick(l, o.cfg.BucketSlots)); err != nil {
			return d, err
		}
	}
	return d, nil
}

// Peek returns the current contents of block id WITHOUT any ORAM access,
// device accounting, or state change. It exists for model evaluation and
// debugging only — a real deployment has no such backdoor.
func (o *ORAM) Peek(id uint64) ([]byte, error) {
	if id >= o.cfg.NumBlocks {
		return nil, fmt.Errorf("raworam: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	if o.cfg.Phantom {
		return make([]byte, o.cfg.BlockSize), nil
	}
	if blk := o.stash.Get(id); blk != nil {
		return append([]byte(nil), blk.Data...), nil
	}
	out := make([]byte, o.cfg.BlockSize)
	o.resetPath()
	found, err := o.findOnPath(o.pos.Get(id), id, out, false)
	if err != nil {
		return nil, err
	}
	if !found {
		o.initBlock(out, id)
	}
	return out, nil
}

// Flush drains the stash with repeated EO accesses until it is empty or
// maxEvictions is hit; used at shutdown and by tests.
func (o *ORAM) Flush(maxEvictions int) (time.Duration, error) {
	var d time.Duration
	for i := 0; i < maxEvictions && o.stash.Len() > 0; i++ {
		ed, err := o.evictOnce()
		d += ed
		if err != nil {
			return d, err
		}
	}
	if !o.cfg.Phantom && o.stash.Len() > 0 {
		return d, fmt.Errorf("raworam: %d blocks still in stash after %d evictions", o.stash.Len(), maxEvictions)
	}
	return d, nil
}

// initBlock fills dst with the initial contents of never-written block id.
func (o *ORAM) initBlock(dst []byte, id uint64) {
	if o.cfg.InitFn == nil {
		clear(dst)
		return
	}
	b := o.cfg.InitFn(id)
	if len(b) != o.cfg.BlockSize {
		panic(fmt.Sprintf("raworam: InitFn returned %d bytes, want %d", len(b), o.cfg.BlockSize))
	}
	copy(dst, b)
}

// validBits returns the (lazily created) valid bitmap of bucket idx.
func (o *ORAM) validBits(idx uint32) []byte {
	v, ok := o.vtree[idx]
	if !ok {
		v = make([]byte, (o.cfg.BucketSlots+7)/8)
		o.vtree[idx] = v
	}
	return v
}

func getBit(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }
func setBit(bm []byte, i int)      { bm[i/8] |= 1 << (i % 8) }
func clearBit(bm []byte, i int)    { bm[i/8] &^= 1 << (i % 8) }

// findOnPath scans the path to leaf, root first, for block id and copies
// its payload into dst, stopping at the bucket that holds it; with take
// set it also clears the slot's valid flag (VTree), removing the block
// from the tree. Buckets already in the path buffer are not read again:
// the caller empties it (resetPath) before the first lookup of a batch.
func (o *ORAM) findOnPath(leaf uint32, id uint64, dst []byte, take bool) (bool, error) {
	for l := 0; l < o.levels; l++ {
		idx := o.bucketIndex(leaf, l)
		ctr, written := o.counters[idx]
		if !written {
			continue
		}
		plain, err := o.readBucket(l, idx, ctr)
		if err != nil {
			return false, err
		}
		vb := o.validBits(idx)
		for s := 0; s < o.cfg.BucketSlots; s++ {
			if !getBit(vb, s) {
				continue
			}
			off := s * (slotMetaSize + o.cfg.BlockSize)
			if binary.LittleEndian.Uint64(plain[off:]) != id {
				continue
			}
			if take {
				clearBit(vb, s)
			}
			copy(dst, plain[off+slotMetaSize:off+slotMetaSize+o.cfg.BlockSize])
			return true, nil
		}
	}
	return false, nil
}

// loadBucketToStash moves all valid blocks of bucket idx (on tree level
// `level`) into the stash and clears their flags (they will be re-placed
// by the eviction pass).
func (o *ORAM) loadBucketToStash(level int, idx uint32) error {
	ctr, written := o.counters[idx]
	if !written {
		return nil
	}
	plain, err := o.readBucket(level, idx, ctr)
	if err != nil {
		return err
	}
	vb := o.validBits(idx)
	for s := 0; s < o.cfg.BucketSlots; s++ {
		if !getBit(vb, s) {
			continue
		}
		off := s * (slotMetaSize + o.cfg.BlockSize)
		id := binary.LittleEndian.Uint64(plain[off:])
		if id == invalidBlockID {
			clearBit(vb, s)
			continue
		}
		// Defensive: under the AO-before-WriteBack discipline a block can
		// never be valid in the tree while a fresher copy sits in the
		// stash; if it somehow is, keep the stash copy.
		if o.stash.Get(id) == nil {
			blk := o.stash.NewBlock(id, binary.LittleEndian.Uint32(plain[off+8:]), o.cfg.BlockSize)
			copy(blk.Data, plain[off+slotMetaSize:])
			if err := o.stash.Put(blk); err != nil {
				return err
			}
		}
		clearBit(vb, s)
	}
	return nil
}

// resetPath empties the path buffer.
func (o *ORAM) resetPath() {
	for l := range o.pathIdx {
		o.pathIdx[l] = noBucket
	}
}

// readBucket returns the plaintext of bucket idx, which lies on tree
// level `level`, from that level's path-buffer slot, fetching and (if
// configured) authenticating and decrypting it first unless the slot
// already holds it. The result is valid until the slot takes another
// bucket. Device traffic was already charged (once, for the whole path)
// by chargeAO/chargeEO, so the data movement here uses the unaccounted
// PeekAt — keeping phantom and functional traffic identical.
func (o *ORAM) readBucket(level int, idx uint32, ctr uint64) ([]byte, error) {
	plainLen := len(o.plain)
	slot := o.pathBuf[level*o.bucketSize : (level+1)*o.bucketSize : (level+1)*o.bucketSize]
	if o.pathIdx[level] == idx {
		return slot[:plainLen], nil
	}
	o.pathIdx[level] = noBucket // a failed read leaves the slot holding nothing
	if o.cfg.Engine == nil {
		if err := o.ssd.PeekAt(o.bucketAddr(idx), slot); err != nil {
			return nil, err
		}
	} else {
		if err := o.ssd.PeekAt(o.bucketAddr(idx), o.stored); err != nil {
			return nil, err
		}
		if _, err := o.cfg.Engine.OpenTo(slot[:0], o.stored[:tee.SealedSize(plainLen)], uint64(idx), ctr); err != nil {
			return nil, err
		}
	}
	o.pathIdx[level] = idx
	return slot[:plainLen], nil
}

// storeBucket packs, seals and writes bucket idx with the given blocks,
// updating the VTree bitmap and the bucket counter.
func (o *ORAM) storeBucket(idx uint32, blocks []*stash.Block) error {
	plain := o.plain
	clear(plain) // empty slots read as zero after the id, as in a fresh image
	vb := o.validBits(idx)
	for s := 0; s < o.cfg.BucketSlots; s++ {
		off := s * (slotMetaSize + o.cfg.BlockSize)
		if s < len(blocks) {
			b := blocks[s]
			binary.LittleEndian.PutUint64(plain[off:], b.ID)
			binary.LittleEndian.PutUint32(plain[off+8:], b.Leaf)
			copy(plain[off+slotMetaSize:], b.Data)
			setBit(vb, s)
		} else {
			binary.LittleEndian.PutUint64(plain[off:], invalidBlockID)
			clearBit(vb, s)
		}
	}
	ctr := o.counters[idx] + 1
	o.counters[idx] = ctr
	var n int
	if o.cfg.Engine != nil {
		n = len(o.cfg.Engine.SealTo(o.stored[:0], plain, uint64(idx), ctr))
	} else {
		n = copy(o.stored, plain)
	}
	clear(o.stored[n:]) // the page padding is stored too; the last bucket's bytes must not ride along
	// Traffic was charged path-wide by chargeEO; move bytes unaccounted.
	return o.ssd.PokeAt(o.bucketAddr(idx), o.stored)
}
