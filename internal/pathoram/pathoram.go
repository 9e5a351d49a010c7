// Package pathoram implements Path ORAM (Stefanov et al., CCS'13), the
// baseline tree ORAM of the FEDORA paper (Sec 2.3), over a simulated
// storage device.
//
// Data is stored in fixed-size blocks in a binary tree of buckets, each
// with Z slots. Every block is assigned to a path (leaf); the invariant
// is that a block is either in a bucket along its path or in the stash.
// An access reads the whole path into the stash, serves the block,
// reassigns it to a fresh random path, and greedily evicts stash blocks
// back onto the same path. To an observer, every access is a read and a
// write of one uniformly random path.
//
// The package also provides the paper's "Path ORAM+" baseline
// configuration (Sec 6.1): buckets padded to the SSD page size so each
// bucket access is whole-page, with the structure placed on the SSD.
//
// Two operating modes:
//
//   - Functional: real payloads, sealed with the TEE engine, stored in
//     the device's sparse page store. Used by tests, examples, and
//     accuracy studies.
//   - Phantom: identical access *accounting* (same bucket counts, sizes,
//     page rounding, modelled durations) with no payload movement, so
//     production-scale tables (250M entries) can be swept cheaply. A test
//     asserts functional and phantom modes report identical traffic.
package pathoram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/device"
	"repro/internal/paged"
	"repro/internal/persist"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tee"
)

// Op selects between a read and a write access.
type Op int

const (
	// OpRead returns the block's current contents.
	OpRead Op = iota
	// OpWrite replaces the block's contents.
	OpWrite
)

// slotMetaSize is the serialized per-slot metadata: 8-byte block ID,
// 4-byte leaf, 1-byte valid flag.
const slotMetaSize = 13

// invalidBlockID marks an empty slot on disk.
const invalidBlockID = ^uint64(0)

// Config parameterizes a Path ORAM instance.
type Config struct {
	// NumBlocks is N, the number of logical blocks (embedding rows).
	NumBlocks uint64
	// BlockSize is the payload size in bytes (the paper's 64–256 B rows).
	BlockSize int
	// BucketSlots is Z, the number of block slots per bucket.
	BucketSlots int
	// Amplification is the target ratio of total tree slots to N. Path
	// ORAM traditionally uses 6–8; RAW/Ring-style trees use 1.5–2
	// (Sec 3.2 of the paper). Default 8.
	Amplification float64
	// StashCapacity bounds the stash; 0 derives a default from tree depth.
	StashCapacity int
	// Seed makes the ORAM deterministic.
	Seed int64
	// Engine encrypts buckets; nil stores plaintext (still functional).
	Engine *tee.Engine
	// Phantom enables accounting-only mode.
	Phantom bool
	// AlignBucketToPage pads the stored bucket to a multiple of the
	// device page size (the SSD-friendly layout of Path ORAM+/Sec 6.6).
	AlignBucketToPage bool
	// InitFn supplies the initial contents of a block that has never been
	// written (e.g. the embedding table's initialization); nil means
	// zeros. This virtualizes table pre-loading so constructing a
	// terabyte-scale ORAM does not require N writes.
	InitFn func(id uint64) []byte
	// PositionMap overrides the built-in sparse map — used by the
	// recursive construction, where an ORAM's position map lives inside
	// the next smaller ORAM. It must cover NumBlocks blocks over exactly
	// this ORAM's leaf count (compute it in advance with Geometry).
	PositionMap position.Map
	// BaseAddr offsets the tree on the device, letting multiple ORAMs
	// (e.g. the recursive position-map chain) share one device.
	BaseAddr uint64
}

func (c *Config) setDefaults() {
	if c.BucketSlots == 0 {
		c.BucketSlots = 4
	}
	if c.Amplification == 0 {
		c.Amplification = 8
	}
	if c.StashCapacity == 0 {
		c.StashCapacity = 200
	}
}

func (c *Config) validate() error {
	if c.NumBlocks == 0 {
		return errors.New("pathoram: NumBlocks must be positive")
	}
	if c.BlockSize <= 0 {
		return errors.New("pathoram: BlockSize must be positive")
	}
	if c.BucketSlots <= 0 {
		return errors.New("pathoram: BucketSlots must be positive")
	}
	if c.Amplification < 1 {
		return errors.New("pathoram: Amplification must be >= 1")
	}
	return nil
}

// Stats counts ORAM-level events (device-level traffic is on the device).
type Stats struct {
	Accesses    uint64
	BucketReads uint64
	BucketWrite uint64
	Time        time.Duration
}

// ORAM is a Path ORAM instance.
type ORAM struct {
	cfg    Config
	dev    device.Device
	pos    position.Map
	stash  *stash.Stash
	src    *persist.Source // checkpointable state behind rng
	rng    *rand.Rand
	engine *tee.Engine

	levels     int    // tree levels including root and leaves
	leaves     uint32 // number of leaf buckets (power of two)
	bucketSize int    // stored bytes per bucket (after sealing/padding)

	// counters holds per-bucket write counters for encryption freshness,
	// by bucket index; 0 (absent) means never written — a written bucket's
	// counter is at least 1. In real FEDORA hardware these live in the
	// parent-group scheme of Sec 5.2; the simulator keeps them host-side
	// with equivalent semantics.
	counters paged.Table[uint64]

	// One bucket in flight, reused by every access: the device image as
	// read or written (bucketSize bytes) and its plaintext (opened on the
	// way in, packed on the way out). Without an engine the stored image
	// starts with the plaintext, and plain aliases stored's front. Nothing
	// returned to a caller aliases them.
	stored []byte
	plain  []byte

	stats Stats
}

// nextPow2 returns the smallest power of two >= v (v >= 1).
func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// Geometry computes the tree shape for a config: leaf count and levels.
func Geometry(numBlocks uint64, bucketSlots int, amplification float64) (leaves uint32, levels int) {
	// total slots ≈ 2 * leaves * Z; target amplification*N slots.
	target := uint64(amplification*float64(numBlocks))/uint64(2*bucketSlots) + 1
	l := nextPow2(target)
	if l < 2 {
		l = 2
	}
	levels = 1
	for p := uint64(1); p < l; p <<= 1 {
		levels++
	}
	return uint32(l), levels
}

// New creates a Path ORAM on dev. The device must be large enough for the
// tree; use RequiredBytes to size it.
func New(cfg Config, dev device.Device) (*ORAM, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	leaves, levels := Geometry(cfg.NumBlocks, cfg.BucketSlots, cfg.Amplification)
	src := persist.NewSource(cfg.Seed)
	o := &ORAM{
		cfg:    cfg,
		dev:    dev,
		src:    src,
		rng:    rand.New(src),
		engine: cfg.Engine,
		levels: levels,
		leaves: leaves,
		stash:  stash.New(cfg.StashCapacity),
	}
	o.bucketSize = o.storedBucketSize()
	if !cfg.Phantom {
		o.stored = make([]byte, o.bucketSize)
		if o.engine != nil {
			o.plain = make([]byte, o.plainBucketSize())
		} else {
			o.plain = o.stored[:o.plainBucketSize()]
		}
	}
	if need := cfg.BaseAddr + o.RequiredBytes(); dev.Capacity() < need {
		return nil, fmt.Errorf("pathoram: device capacity %d < required %d", dev.Capacity(), need)
	}
	if cfg.PositionMap != nil {
		if cfg.PositionMap.NumLeaves() != leaves {
			return nil, fmt.Errorf("pathoram: position map covers %d leaves, tree has %d",
				cfg.PositionMap.NumLeaves(), leaves)
		}
		o.pos = cfg.PositionMap
	} else {
		o.pos = position.NewSparse(cfg.NumBlocks, leaves, uint64(cfg.Seed)+1)
	}
	return o, nil
}

// storedBucketSize computes the on-device size of one bucket.
func (o *ORAM) storedBucketSize() int {
	plain := o.plainBucketSize()
	stored := plain
	if o.engine != nil {
		stored = tee.SealedSize(plain)
	}
	if o.cfg.AlignBucketToPage {
		ps := o.dev.PageSize()
		if ps > 1 {
			stored = (stored + ps - 1) / ps * ps
		}
	}
	return stored
}

// plainBucketSize is the size of one bucket's plaintext image.
func (o *ORAM) plainBucketSize() int {
	return o.cfg.BucketSlots * (slotMetaSize + o.cfg.BlockSize)
}

// RequiredBytes is the device footprint of the whole tree.
func (o *ORAM) RequiredBytes() uint64 {
	return uint64(o.numBuckets()) * uint64(o.bucketSize)
}

// numBuckets returns the total bucket count (2*leaves - 1).
func (o *ORAM) numBuckets() uint32 { return 2*o.leaves - 1 }

// Levels returns the tree depth (root inclusive).
func (o *ORAM) Levels() int { return o.levels }

// Leaves returns the number of leaves.
func (o *ORAM) Leaves() uint32 { return o.leaves }

// BucketStoredSize returns the on-device bucket size in bytes.
func (o *ORAM) BucketStoredSize() int { return o.bucketSize }

// StashPeak exposes the stash high-water mark for occupancy tests.
func (o *ORAM) StashPeak() int { return o.stash.Peak() }

// StashLen exposes the current stash occupancy.
func (o *ORAM) StashLen() int { return o.stash.Len() }

// Stats returns accumulated ORAM counters.
func (o *ORAM) Stats() Stats { return o.stats }

// ResetStats zeroes ORAM counters (not device counters).
func (o *ORAM) ResetStats() { o.stats = Stats{} }

// bucketIndex returns the heap index of the bucket at `level` on the
// path to `leaf` (root is level 0, index 0).
func (o *ORAM) bucketIndex(leaf uint32, level int) uint32 {
	return (uint32(1) << level) - 1 + (leaf >> (o.levels - 1 - level))
}

// bucketAddr returns the device byte offset of bucket idx.
func (o *ORAM) bucketAddr(idx uint32) uint64 {
	return o.cfg.BaseAddr + uint64(idx)*uint64(o.bucketSize)
}

// PathBytes is the bytes moved by reading or writing one full path.
func (o *ORAM) PathBytes() uint64 {
	return uint64(o.levels) * uint64(o.bucketSize)
}

// randomLeaf draws a uniform leaf.
func (o *ORAM) randomLeaf() uint32 { return uint32(o.rng.Int63n(int64(o.leaves))) }

// Access performs one ORAM access. For OpRead, the returned slice holds
// the block contents; for OpWrite, data supplies the new contents (its
// length must equal BlockSize) and the returned slice is nil. The
// returned duration is the modelled device time of the access.
func (o *ORAM) Access(op Op, id uint64, data []byte) ([]byte, time.Duration, error) {
	if id >= o.cfg.NumBlocks {
		return nil, 0, fmt.Errorf("pathoram: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	if op == OpWrite && len(data) != o.cfg.BlockSize {
		return nil, 0, fmt.Errorf("pathoram: write size %d != block size %d", len(data), o.cfg.BlockSize)
	}
	o.stats.Accesses++
	if o.cfg.Phantom {
		d := o.chargePath(device.OpRead) + o.chargePath(device.OpWrite)
		o.stats.Time += d
		var out []byte
		if op == OpRead {
			out = make([]byte, o.cfg.BlockSize)
		}
		return out, d, nil
	}

	blk, leaf, dur, err := o.fetch(id)
	if err != nil {
		return nil, dur, err
	}
	var out []byte
	if op == OpRead {
		out = append([]byte(nil), blk.Data...)
	} else {
		blk.Data = append(blk.Data[:0], data...)
	}

	d2, err := o.evictPath(leaf)
	dur += d2
	if err != nil {
		return nil, dur, err
	}
	o.stats.Time += dur
	return out, dur, nil
}

// fetch is the read half of an access: it remaps block id to a fresh
// random leaf, reads the path it was on and returns the block — resident,
// already carrying its new leaf — with the leaf evictPath must write
// back. The path's blocks are staged in the stash, not indexed: evictPath
// writes almost all of them straight back. An access that fails here ends
// here, so the staged blocks are handed to the index before returning.
func (o *ORAM) fetch(id uint64) (*stash.Block, uint32, time.Duration, error) {
	newLeaf := o.randomLeaf()
	leaf := position.GetSet(o.pos, id, newLeaf)
	dur, err := o.readPath(leaf)
	var blk *stash.Block
	if err == nil {
		blk, err = o.residentBlock(id)
	}
	if err != nil {
		o.stash.Unstage()
		return nil, leaf, dur, err
	}
	blk.Leaf = newLeaf
	return blk, leaf, dur, nil
}

// Update performs a single ORAM access that reads block id, lets fn
// mutate its contents in place, and writes it back — the read-modify-
// write the buffer ORAM needs for gradient aggregation (one path read +
// one path write, indistinguishable from any other access).
func (o *ORAM) Update(id uint64, fn func(data []byte)) (time.Duration, error) {
	if id >= o.cfg.NumBlocks {
		return 0, fmt.Errorf("pathoram: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	o.stats.Accesses++
	if o.cfg.Phantom {
		d := o.chargePath(device.OpRead) + o.chargePath(device.OpWrite)
		o.stats.Time += d
		return d, nil
	}
	blk, leaf, dur, err := o.fetch(id)
	if err != nil {
		return dur, err
	}
	fn(blk.Data)
	d2, err := o.evictPath(leaf)
	dur += d2
	if err != nil {
		return dur, err
	}
	o.stats.Time += dur
	return dur, nil
}

// Read is shorthand for Access(OpRead, ...).
func (o *ORAM) Read(id uint64) ([]byte, time.Duration, error) {
	return o.Access(OpRead, id, nil)
}

// Write is shorthand for Access(OpWrite, ...).
func (o *ORAM) Write(id uint64, data []byte) (time.Duration, error) {
	_, d, err := o.Access(OpWrite, id, data)
	return d, err
}

// Peek returns block id's current contents without any ORAM access,
// accounting, or state change — for evaluation/debugging only.
func (o *ORAM) Peek(id uint64) ([]byte, error) {
	if id >= o.cfg.NumBlocks {
		return nil, fmt.Errorf("pathoram: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	if o.cfg.Phantom {
		return make([]byte, o.cfg.BlockSize), nil
	}
	if blk := o.stash.Get(id); blk != nil {
		return append([]byte(nil), blk.Data...), nil
	}
	leaf := o.pos.Get(id)
	for l := 0; l < o.levels; l++ {
		idx := o.bucketIndex(leaf, l)
		ctr := o.counters.Get(uint64(idx))
		if ctr == 0 {
			continue
		}
		if err := o.dev.PeekAt(o.bucketAddr(idx), o.stored); err != nil {
			return nil, err
		}
		plain, err := o.openBucket(idx, ctr)
		if err != nil {
			return nil, err
		}
		for s := 0; s < o.cfg.BucketSlots; s++ {
			off := s * (slotMetaSize + o.cfg.BlockSize)
			if plain[off+12] == 1 && binary.LittleEndian.Uint64(plain[off:]) == id {
				return append([]byte(nil), plain[off+slotMetaSize:off+slotMetaSize+o.cfg.BlockSize]...), nil
			}
		}
	}
	out := make([]byte, o.cfg.BlockSize)
	o.initBlock(out, id)
	return out, nil
}

// initBlock fills dst with the initial contents of never-written block id.
func (o *ORAM) initBlock(dst []byte, id uint64) {
	if o.cfg.InitFn == nil {
		clear(dst)
		return
	}
	b := o.cfg.InitFn(id)
	if len(b) != o.cfg.BlockSize {
		panic(fmt.Sprintf("pathoram: InitFn returned %d bytes, want %d", len(b), o.cfg.BlockSize))
	}
	copy(dst, b)
}

// residentBlock returns block id from the stash — where readPath has just
// staged it if it was on the path — materializing a never-written block.
func (o *ORAM) residentBlock(id uint64) (*stash.Block, error) {
	if blk := o.stash.Get(id); blk != nil {
		return blk, nil
	}
	blk := o.stash.NewBlock(id, 0, o.cfg.BlockSize)
	o.initBlock(blk.Data, id)
	return blk, o.stash.Stage(blk)
}

// chargePath accounts a full-path transfer without moving data.
func (o *ORAM) chargePath(op device.Op) time.Duration {
	d := o.dev.ChargeN(op, o.bucketSize, o.levels)
	if op == device.OpRead {
		o.stats.BucketReads += uint64(o.levels)
	} else {
		o.stats.BucketWrite += uint64(o.levels)
	}
	return d
}

// readPath stages every valid block on the path to leaf in the stash.
func (o *ORAM) readPath(leaf uint32) (time.Duration, error) {
	var total time.Duration
	for l := 0; l < o.levels; l++ {
		idx := o.bucketIndex(leaf, l)
		o.stats.BucketReads++
		d, err := o.dev.ReadAt(o.bucketAddr(idx), o.stored)
		total += d
		if err != nil {
			return total, err
		}
		ctr := o.counters.Get(uint64(idx))
		if ctr == 0 {
			continue // never-written bucket: all slots empty
		}
		plain, err := o.openBucket(idx, ctr)
		if err != nil {
			return total, err
		}
		if err := o.unpackBucket(plain); err != nil {
			return total, err
		}
	}
	return total, nil
}

// evictPath writes buckets along the path to leaf from the leaf level up,
// greedily filling each with evictable stash blocks, and ends the access:
// on every exit the staged blocks no bucket took join the stash's index.
func (o *ORAM) evictPath(leaf uint32) (time.Duration, error) {
	defer o.stash.Unstage()
	var total time.Duration
	o.stash.BeginEviction(leaf, o.levels)
	for l := o.levels - 1; l >= 0; l-- {
		idx := o.bucketIndex(leaf, l)
		o.packBucket(o.stash.Pick(l, o.cfg.BucketSlots))
		ctr := o.counters.Get(uint64(idx)) + 1
		o.counters.Set(uint64(idx), ctr)
		o.sealBucket(idx, ctr)
		o.stats.BucketWrite++
		d, err := o.dev.WriteAt(o.bucketAddr(idx), o.stored)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// packBucket serializes up to Z blocks into the plaintext bucket image.
func (o *ORAM) packBucket(blocks []*stash.Block) {
	plain := o.plain
	clear(plain) // empty slots and flags read as zero, as in a fresh image
	for s := 0; s < o.cfg.BucketSlots; s++ {
		off := s * (slotMetaSize + o.cfg.BlockSize)
		if s < len(blocks) {
			b := blocks[s]
			binary.LittleEndian.PutUint64(plain[off:], b.ID)
			binary.LittleEndian.PutUint32(plain[off+8:], b.Leaf)
			plain[off+12] = 1
			copy(plain[off+slotMetaSize:], b.Data)
		} else {
			binary.LittleEndian.PutUint64(plain[off:], invalidBlockID)
		}
	}
}

// unpackBucket stages the valid slots of a plaintext bucket in the stash.
func (o *ORAM) unpackBucket(plain []byte) error {
	for s := 0; s < o.cfg.BucketSlots; s++ {
		off := s * (slotMetaSize + o.cfg.BlockSize)
		if plain[off+12] != 1 {
			continue
		}
		id := binary.LittleEndian.Uint64(plain[off:])
		if id == invalidBlockID {
			continue
		}
		blk := o.stash.NewBlock(id, binary.LittleEndian.Uint32(plain[off+8:]), o.cfg.BlockSize)
		copy(blk.Data, plain[off+slotMetaSize:])
		if err := o.stash.Stage(blk); err != nil {
			return err
		}
	}
	return nil
}

// sealBucket turns the packed plaintext image into the stored image:
// encrypted (if configured) and zero-padded to the stored bucket size.
func (o *ORAM) sealBucket(idx uint32, ctr uint64) {
	n := len(o.plain) // without an engine packBucket wrote the stored image's front itself
	if o.engine != nil {
		n = len(o.engine.SealTo(o.stored[:0], o.plain, uint64(idx), ctr))
	}
	clear(o.stored[n:]) // the padding is stored too; the last bucket's bytes must not ride along
}

// openBucket returns the plaintext of the stored image just read.
func (o *ORAM) openBucket(idx uint32, ctr uint64) ([]byte, error) {
	plainLen := len(o.plain)
	if o.engine == nil {
		return o.stored[:plainLen], nil
	}
	return o.engine.OpenTo(o.plain[:0], o.stored[:tee.SealedSize(plainLen)], uint64(idx), ctr)
}
