// Package pathoram implements Path ORAM (Stefanov et al., CCS'13), the
// baseline tree ORAM of the FEDORA paper (Sec 2.3), over a simulated
// storage device.
//
// Data is stored in fixed-size blocks in a binary tree of buckets, each
// with Z slots. Every block is assigned to a path (leaf); the invariant
// is that a block is either in a bucket along its path or in the stash.
// An access reads the whole path, serves the block, reassigns it to a
// fresh random path, and greedily evicts the path's blocks and the
// stash's back onto the same path; what no bucket takes stays in the
// stash. One kernel does this for every operation (see access): the
// path is opened in place and a block that goes straight back onto it
// is never copied out. To an observer, every access is a read and a
// write of one uniformly random path, bucket by bucket, root to leaf
// and then leaf to root. The bucket tree itself — addresses, write
// counters, sealed images, the path buffer and the device calls — is
// internal/tree's; this package keeps the 13-byte slot layout and the
// access.
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
	"repro/internal/persist"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tee"
	"repro/internal/tree"
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
	// this ORAM's leaf count (compute it in advance with tree.Geometry).
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

	tree *tree.Tree // geometry, addresses, write counters, sealed images
	// The path of the access in flight (see access), and how many leading
	// slots of the tree's write buffer (Plain) may hold block bytes: only
	// writePath packs it, and the rest hold the empty-slot image already.
	path   *tree.Path
	packed int

	stats Stats
}

// Layout derives what New builds for cfg on a device whose pages are
// pageSize bytes: cfg with its defaults set, and the bucket tree. It
// opens no device, so a caller can size one (RequiredBytes, plus
// BaseAddr) first.
func Layout(cfg Config, pageSize int) (Config, *tree.Tree, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, nil, err
	}
	if !cfg.AlignBucketToPage {
		pageSize = 1
	}
	leaves, levels := tree.Geometry(cfg.NumBlocks, cfg.BucketSlots, cfg.Amplification)
	plain := cfg.BucketSlots * (slotMetaSize + cfg.BlockSize)
	return cfg, tree.New(leaves, levels, plain, cfg.Engine, pageSize, cfg.BaseAddr), nil
}

// New creates a Path ORAM on dev. The device must be large enough for the
// tree; use Layout or RequiredBytes to size it.
func New(cfg Config, dev device.Device) (*ORAM, error) {
	cfg, t, err := Layout(cfg, dev.PageSize())
	if err != nil {
		return nil, err
	}
	src := persist.NewSource(cfg.Seed)
	o := &ORAM{
		cfg:    cfg,
		dev:    dev,
		src:    src,
		rng:    rand.New(src),
		engine: cfg.Engine,
		tree:   t,
		path:   t.NewPath(),
		packed: cfg.BucketSlots,
		stash:  stash.New(cfg.StashCapacity),
	}
	if need := cfg.BaseAddr + t.RequiredBytes(); dev.Capacity() < need {
		return nil, fmt.Errorf("pathoram: device capacity %d < required %d", dev.Capacity(), need)
	}
	if cfg.PositionMap != nil {
		if cfg.PositionMap.NumLeaves() != t.Leaves() {
			return nil, fmt.Errorf("pathoram: position map covers %d leaves, tree has %d",
				cfg.PositionMap.NumLeaves(), t.Leaves())
		}
		o.pos = cfg.PositionMap
	} else {
		o.pos = position.NewSparse(cfg.NumBlocks, t.Leaves(), uint64(cfg.Seed)+1)
	}
	return o, nil
}

// RequiredBytes (the whole tree's device bytes), Levels (root inclusive),
// Leaves, BucketStoredSize and PathBytes expose the geometry.
func (o *ORAM) RequiredBytes() uint64 { return o.tree.RequiredBytes() }
func (o *ORAM) Levels() int           { return o.tree.Levels() }
func (o *ORAM) Leaves() uint32        { return o.tree.Leaves() }
func (o *ORAM) BucketStoredSize() int { return o.tree.BucketSize() }
func (o *ORAM) PathBytes() uint64     { return o.tree.PathBytes() }

// StashPeak exposes the stash high-water mark for occupancy tests.
func (o *ORAM) StashPeak() int { return o.stash.Peak() }

// StashLen exposes the current stash occupancy.
func (o *ORAM) StashLen() int { return o.stash.Len() }

// Stats returns accumulated ORAM counters.
func (o *ORAM) Stats() Stats { return o.stats }

// ResetStats zeroes ORAM counters (not device counters).
func (o *ORAM) ResetStats() { o.stats = Stats{} }

// randomLeaf draws a uniform leaf.
func (o *ORAM) randomLeaf() uint32 { return uint32(o.rng.Int63n(int64(o.tree.Leaves()))) }

// Access performs one ORAM access. For OpRead, the returned slice holds
// the block contents; for OpWrite, data supplies the new contents (its
// length must equal BlockSize) and the returned slice is nil. The
// returned duration is the modelled device time of the access.
func (o *ORAM) Access(op Op, id uint64, data []byte) ([]byte, time.Duration, error) {
	return o.access(id, op, data, nil)
}

// Update performs a single ORAM access that reads block id, lets fn
// mutate its contents in place, and writes it back — the read-modify-
// write the buffer ORAM needs for gradient aggregation (one path read +
// one path write, indistinguishable from any other access).
func (o *ORAM) Update(id uint64, fn func(data []byte)) (time.Duration, error) {
	_, d, err := o.access(id, OpRead, nil, fn)
	return d, err
}

// access is the one access every operation runs. It remaps block id to
// a fresh random leaf, reads the path id was on into its path buffer
// and opens it there (readPath), and lets fn mutate the block's bytes
// where they lie — or, without fn, serves op on them. The stash then plans which entry
// each bucket of the path takes, writePath writes the path back leaf
// first, and the stash settles the entries no bucket took — on a failure
// too: what the access held stays in the stash.
func (o *ORAM) access(id uint64, op Op, data []byte, fn func([]byte)) ([]byte, time.Duration, error) {
	if id >= o.cfg.NumBlocks {
		return nil, 0, fmt.Errorf("pathoram: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	if fn == nil && op == OpWrite && len(data) != o.cfg.BlockSize {
		return nil, 0, fmt.Errorf("pathoram: write size %d != block size %d", len(data), o.cfg.BlockSize)
	}
	o.stats.Accesses++
	var out []byte
	if o.cfg.Phantom {
		d := o.tree.ChargePath(o.dev, device.OpRead) + o.tree.ChargePath(o.dev, device.OpWrite)
		o.stats.BucketReads += uint64(o.tree.Levels())
		o.stats.BucketWrite += uint64(o.tree.Levels())
		o.stats.Time += d
		if fn == nil && op == OpRead {
			out = make([]byte, o.cfg.BlockSize)
		}
		return out, d, nil
	}
	newLeaf := o.randomLeaf()
	leaf := position.GetSet(o.pos, id, newLeaf)
	dur, target, err := o.readPath(id, leaf)
	if err != nil {
		return nil, dur, o.stash.Settle(0, err)
	}
	t := &o.stash.Entries()[target]
	t.Leaf = newLeaf
	switch {
	case fn != nil:
		fn(t.Data)
	case op == OpWrite:
		copy(t.Data, data)
	default:
		out = append([]byte(nil), t.Data...)
	}
	o.stash.Plan(leaf, o.tree.Levels(), o.tree.Levels()-1, o.cfg.BucketSlots)
	d, written, err := o.writePath(leaf)
	dur += d
	if err = o.stash.Settle(written, err); err != nil {
		return nil, dur, err
	}
	o.stats.Time += dur
	return out, dur, nil
}

// readPath reads the buckets of the path to leaf into the path buffer,
// root first, each charged, and opens each written one in place.
// Every valid slot is Taken into the stash's eviction with its bytes
// where they lie; the residents join it; and if block id was in neither,
// a fresh block made for it is Held last. It returns the target's index
// in the stash's Entries. A slot whose block the stash already holds —
// only after an access failed between reading a path and writing it
// back — refreshes that resident instead.
func (o *ORAM) readPath(id uint64, leaf uint32) (time.Duration, int, error) {
	o.stash.Begin()
	var dur time.Duration
	target := -1
	indexed := o.stash.Len() > 0
	slot := slotMetaSize + o.cfg.BlockSize
	for l := 0; l < o.tree.Levels(); l++ {
		o.stats.BucketReads++
		plain, d, err := o.path.Read(o.dev, l, o.tree.Index(leaf, l), true, nil)
		dur += d
		if err != nil {
			return dur, target, err
		}
		for s := 0; plain != nil && s < o.cfg.BucketSlots; s++ { // nil: never written
			meta := plain[s*slot : (s+1)*slot : (s+1)*slot]
			if meta[12] != 1 {
				continue
			}
			bid := binary.LittleEndian.Uint64(meta)
			if bid == invalidBlockID {
				continue
			}
			bleaf := binary.LittleEndian.Uint32(meta[8:])
			if indexed {
				if b := o.stash.Get(bid); b != nil {
					b.Leaf = bleaf
					copy(b.Data, meta[slotMetaSize:])
					continue
				}
			}
			if err := o.stash.Take(bid, bleaf, meta[slotMetaSize:]); err != nil {
				return dur, target, err
			}
			if bid == id && target < 0 {
				target = len(o.stash.Entries()) - 1
			}
		}
	}
	if indexed {
		held := len(o.stash.Entries())
		o.stash.JoinResidents()
		for i, e := range o.stash.Entries()[held:] {
			if e.ID == id {
				target = held + i
			}
		}
	}
	if target < 0 {
		b := o.stash.NewBlock(id, 0, o.cfg.BlockSize)
		if err := o.stash.Hold(b); err != nil {
			return dur, target, err
		}
		tree.InitBlock(b.Data, id, o.cfg.InitFn)
		target = len(o.stash.Entries()) - 1
	}
	return dur, target, nil
}

// writePath packs, seals and writes the planned buckets of the path to
// leaf, leaf first, and returns the shallowest level it wrote — 0, or on
// a failed write the level that failed, whose entries are lost with it
// (the entries of the levels above were never written and stay).
func (o *ORAM) writePath(leaf uint32) (time.Duration, int, error) {
	var dur time.Duration
	slot := slotMetaSize + o.cfg.BlockSize
	entries := o.stash.Entries()
	plain := o.tree.Plain()
	for l := o.tree.Levels() - 1; l >= 0; l-- {
		bucket := o.stash.Bucket(l)
		for s, i := range bucket {
			e := &entries[i]
			meta := plain[s*slot : (s+1)*slot]
			binary.LittleEndian.PutUint64(meta, e.ID)
			binary.LittleEndian.PutUint32(meta[8:], e.Leaf)
			meta[12] = 1
			copy(meta[slotMetaSize:], e.Data)
		}
		for s := len(bucket); s < o.packed; s++ {
			meta := plain[s*slot : (s+1)*slot]
			clear(meta) // empty slots and flags read as zero, as in a fresh image
			binary.LittleEndian.PutUint64(meta, invalidBlockID)
		}
		o.packed = len(bucket)
		o.stats.BucketWrite++
		d, err := o.tree.Write(o.dev, o.tree.Index(leaf, l), true)
		dur += d
		if err != nil {
			return dur, l, err
		}
	}
	return dur, 0, nil
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
	o.path.Reset()
	for l := 0; l < o.tree.Levels(); l++ {
		plain, _, err := o.path.Read(o.dev, l, o.tree.Index(leaf, l), false, nil)
		if err != nil {
			return nil, err
		}
		for s := 0; plain != nil && s < o.cfg.BucketSlots; s++ {
			off := s * (slotMetaSize + o.cfg.BlockSize)
			if plain[off+12] == 1 && binary.LittleEndian.Uint64(plain[off:]) == id {
				return append([]byte(nil), plain[off+slotMetaSize:off+slotMetaSize+o.cfg.BlockSize]...), nil
			}
		}
	}
	out := make([]byte, o.cfg.BlockSize)
	tree.InitBlock(out, id, o.cfg.InitFn)
	return out, nil
}
