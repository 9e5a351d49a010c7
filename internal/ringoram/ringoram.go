// Package ringoram implements Ring ORAM (Ren et al., USENIX Security'15
// — reference [96] of the FEDORA paper), the tree ORAM family RAW ORAM
// descends from and the design point between Path ORAM (read+write whole
// paths) and FEDORA's RAW ORAM (read whole paths, write rarely).
//
// Each bucket holds Z real slots plus S reserved dummy slots, with a
// per-bucket record of which slots were touched since the bucket was
// last written. An access reads exactly ONE slot per bucket on the path
// — the requested block where it resides, a fresh dummy elsewhere — so
// online bandwidth is (L+1) blocks instead of Path ORAM's (L+1)·Z.
// Buckets are written back only by:
//
//   - evictions: every A accesses, one full path (reverse-lexicographic
//     order) is read and rewritten with stash contents, and
//   - early reshuffles: a bucket whose touched count reaches S must be
//     rewritten before it runs out of fresh dummies.
//
// The simulator keeps per-bucket metadata (slot IDs, valid/touched bits)
// host-side, standing in for the encrypted metadata blocks of the real
// design; metadata traffic is charged to the DRAM device.
//
// Key invariants: one slot is read per bucket per access (the requested
// block where resident, a fresh dummy elsewhere); a dummy slot is never
// reused between reshuffles; and buckets are written only by reshuffles
// and the EvictPath schedule — the property RAW ORAM inherits and
// FEDORA's SSD lifetime rests on.
package ringoram

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/device"
	"repro/internal/pathoram"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tee"
)

// Op selects read or write semantics for Access.
type Op int

const (
	// OpRead returns the block contents.
	OpRead Op = iota
	// OpWrite replaces the block contents.
	OpWrite
)

const slotMetaSize = 12 // 8-byte ID + 4-byte leaf, stored per slot

const invalidBlockID = ^uint64(0)

// Config parameterizes a Ring ORAM.
type Config struct {
	// NumBlocks is N.
	NumBlocks uint64
	// BlockSize is the payload bytes per block.
	BlockSize int
	// RealSlots is Z (real blocks per bucket); default 8.
	RealSlots int
	// DummySlots is S (reserved dummies per bucket); default Z.
	DummySlots int
	// EvictPeriod is A (accesses per eviction); default Z.
	EvictPeriod int
	// Amplification is total real slots / N; default 2 (Ring ORAM's
	// selling point over Path ORAM's 6–8).
	Amplification float64
	// StashCapacity bounds the stash (0 = derived).
	StashCapacity int
	// Seed drives randomness.
	Seed int64
	// Engine encrypts stored slots (nil = plaintext).
	Engine *tee.Engine
	// Phantom enables accounting-only mode.
	Phantom bool
}

func (c *Config) setDefaults() {
	if c.RealSlots == 0 {
		c.RealSlots = 8
	}
	if c.DummySlots == 0 {
		c.DummySlots = c.RealSlots
	}
	if c.EvictPeriod == 0 {
		c.EvictPeriod = c.RealSlots
	}
	if c.Amplification == 0 {
		c.Amplification = 2
	}
}

func (c *Config) validate() error {
	if c.NumBlocks == 0 {
		return errors.New("ringoram: NumBlocks must be positive")
	}
	if c.BlockSize <= 0 {
		return errors.New("ringoram: BlockSize must be positive")
	}
	if c.RealSlots <= 0 || c.DummySlots <= 0 {
		return errors.New("ringoram: slot counts must be positive")
	}
	if c.EvictPeriod <= 0 {
		return errors.New("ringoram: EvictPeriod must be positive")
	}
	if c.Amplification < 1 {
		return errors.New("ringoram: Amplification must be >= 1")
	}
	return nil
}

// bucketMeta is the host-side stand-in for a bucket's encrypted
// metadata block.
type bucketMeta struct {
	ids     []uint64 // per real slot; invalidBlockID = empty
	leaves  []uint32
	valid   []bool
	touched []bool // per slot (real+dummy): read since last write
	// reads counts slot reads (real or dummy) since the last write; a
	// bucket supports S reads before it must be reshuffled.
	reads   int
	written bool   // bucket ever written to the device
	ctr     uint64 // write counter for encryption freshness
}

// Stats counts ORAM-level events.
type Stats struct {
	Accesses        uint64
	SlotReads       uint64
	BucketWrites    uint64
	EarlyReshuffles uint64
	Evictions       uint64
	Time            time.Duration
}

// ORAM is a Ring ORAM instance.
type ORAM struct {
	cfg  Config
	dev  device.Device
	dram device.Device

	pos   position.Map
	stash *stash.Stash
	rng   *rand.Rand

	levels     int
	leaves     uint32
	slotSize   int // stored bytes per slot
	bucketSize int // stored bytes per bucket (all slots)

	meta       map[uint32]*bucketMeta
	evictCount uint64
	sinceEvict int

	// One slot in flight, reused by every slot read and write: the device
	// image and its plaintext.
	stored []byte
	plain  []byte

	stats Stats
}

// New creates a Ring ORAM whose tree lives on dev; metadata traffic is
// charged to dram.
func New(cfg Config, dev, dram device.Device) (*ORAM, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	leaves, levels := pathoram.Geometry(cfg.NumBlocks, cfg.RealSlots, cfg.Amplification)
	o := &ORAM{
		cfg:    cfg,
		dev:    dev,
		dram:   dram,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		levels: levels,
		leaves: leaves,
		meta:   make(map[uint32]*bucketMeta),
	}
	slotPlain := slotMetaSize + cfg.BlockSize
	o.slotSize = slotPlain
	if cfg.Engine != nil {
		o.slotSize = tee.SealedSize(slotPlain)
	}
	o.bucketSize = o.slotSize * (cfg.RealSlots + cfg.DummySlots)
	o.stored = make([]byte, o.slotSize)
	o.plain = make([]byte, slotPlain)
	if need := o.RequiredBytes(); dev.Capacity() < need {
		return nil, fmt.Errorf("ringoram: device capacity %d < required %d", dev.Capacity(), need)
	}
	if o.cfg.StashCapacity == 0 {
		o.cfg.StashCapacity = cfg.RealSlots*levels + 3*cfg.EvictPeriod + 128
	}
	o.stash = stash.New(o.cfg.StashCapacity)
	o.pos = position.NewSparse(cfg.NumBlocks, leaves, uint64(cfg.Seed)+1)
	return o, nil
}

// RequiredBytes is the device footprint.
func (o *ORAM) RequiredBytes() uint64 {
	return uint64(2*o.leaves-1) * uint64(o.bucketSize)
}

// Levels / Leaves / SlotSize expose geometry.
func (o *ORAM) Levels() int    { return o.levels }
func (o *ORAM) Leaves() uint32 { return o.leaves }
func (o *ORAM) SlotSize() int  { return o.slotSize }

// Stats returns accumulated counters.
func (o *ORAM) Stats() Stats { return o.stats }

// StashPeak exposes the stash high-water mark.
func (o *ORAM) StashPeak() int { return o.stash.Peak() }

// StashLen exposes current occupancy.
func (o *ORAM) StashLen() int { return o.stash.Len() }

func (o *ORAM) bucketIndex(leaf uint32, level int) uint32 {
	return (uint32(1) << level) - 1 + (leaf >> (o.levels - 1 - level))
}

func (o *ORAM) bucketAddr(idx uint32) uint64 {
	return uint64(idx) * uint64(o.bucketSize)
}

func (o *ORAM) slotAddr(idx uint32, slot int) uint64 {
	return o.bucketAddr(idx) + uint64(slot)*uint64(o.slotSize)
}

func (o *ORAM) randomLeaf() uint32 { return uint32(o.rng.Int63n(int64(o.leaves))) }

func (o *ORAM) metaOf(idx uint32) *bucketMeta {
	m, ok := o.meta[idx]
	if !ok {
		m = &bucketMeta{
			ids:     make([]uint64, o.cfg.RealSlots),
			leaves:  make([]uint32, o.cfg.RealSlots),
			valid:   make([]bool, o.cfg.RealSlots),
			touched: make([]bool, o.cfg.RealSlots+o.cfg.DummySlots),
		}
		for i := range m.ids {
			m.ids[i] = invalidBlockID
		}
		o.meta[idx] = m
	}
	return m
}

// metaBytes approximates the DRAM traffic of touching one bucket's
// metadata block.
func (o *ORAM) metaBytes() int {
	return (o.cfg.RealSlots)*(8+4+1) + (o.cfg.RealSlots+o.cfg.DummySlots+7)/8 + tee.TagSize
}

// Access performs one Ring ORAM access.
func (o *ORAM) Access(op Op, id uint64, data []byte) ([]byte, time.Duration, error) {
	if id >= o.cfg.NumBlocks {
		return nil, 0, fmt.Errorf("ringoram: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	if op == OpWrite && len(data) != o.cfg.BlockSize {
		return nil, 0, fmt.Errorf("ringoram: write size %d != block size %d", len(data), o.cfg.BlockSize)
	}
	o.stats.Accesses++
	var total time.Duration

	newLeaf := o.randomLeaf()
	leaf := position.GetSet(o.pos, id, newLeaf)

	// Online phase: one slot per bucket on the path.
	var blk *stash.Block
	if b := o.stash.Get(id); b != nil {
		blk = b
	}
	for l := 0; l < o.levels; l++ {
		idx := o.bucketIndex(leaf, l)
		d, found, err := o.readOneSlot(idx, id, blk == nil)
		total += d
		if err != nil {
			return nil, total, err
		}
		if found != nil {
			blk = found
			if err := o.stash.Put(blk); err != nil {
				return nil, total, err
			}
		}
	}
	if blk == nil {
		blk = o.stash.NewBlock(id, 0, o.cfg.BlockSize)
		clear(blk.Data)
		if err := o.stash.Put(blk); err != nil {
			return nil, total, err
		}
	}
	blk.Leaf = newLeaf
	var out []byte
	if op == OpRead {
		out = append([]byte(nil), blk.Data...)
	} else {
		blk.Data = append(blk.Data[:0], data...)
	}

	// Early reshuffles for exhausted buckets on this path.
	for l := 0; l < o.levels; l++ {
		idx := o.bucketIndex(leaf, l)
		m := o.metaOf(idx)
		if m.reads >= o.cfg.DummySlots {
			d, err := o.rewriteBucket(idx, leaf, l)
			total += d
			if err != nil {
				return nil, total, err
			}
			o.stats.EarlyReshuffles++
		}
	}

	// Scheduled eviction every A accesses.
	o.sinceEvict++
	if o.sinceEvict >= o.cfg.EvictPeriod {
		o.sinceEvict = 0
		d, err := o.evictOnce()
		total += d
		if err != nil {
			return nil, total, err
		}
	}
	o.stats.Time += total
	return out, total, nil
}

// Read / Write are shorthands.
func (o *ORAM) Read(id uint64) ([]byte, time.Duration, error) {
	return o.Access(OpRead, id, nil)
}

func (o *ORAM) Write(id uint64, data []byte) (time.Duration, error) {
	_, d, err := o.Access(OpWrite, id, data)
	return d, err
}

// readOneSlot reads exactly one slot of bucket idx: the slot holding id
// (when wanted and present) or a fresh dummy. It returns the extracted
// block when the real slot was read.
func (o *ORAM) readOneSlot(idx uint32, id uint64, want bool) (time.Duration, *stash.Block, error) {
	m := o.metaOf(idx)
	// Metadata touch (DRAM).
	d := o.dram.Charge(device.OpRead, 0, o.metaBytes())

	target := -1
	if want {
		for s := 0; s < o.cfg.RealSlots; s++ {
			if m.valid[s] && !m.touched[s] && m.ids[s] == id {
				target = s
				break
			}
		}
	}
	if target < 0 {
		// Choose a fresh dummy slot (or an untouched empty real slot —
		// equivalent indistinguishable cover traffic).
		for s := o.cfg.RealSlots; s < o.cfg.RealSlots+o.cfg.DummySlots; s++ {
			if !m.touched[s] {
				target = s
				break
			}
		}
		if target < 0 {
			// No fresh dummies left; the caller reshuffles right after the
			// online phase (the reads counter below guarantees it).
			target = o.cfg.RealSlots
		}
		m.reads++
		m.touched[target] = true
		d += o.chargeOrReadSlot(idx, target, nil)
		d += o.dram.Charge(device.OpWrite, 0, o.metaBytes())
		return d, nil, nil
	}

	// Real hit: read the slot, mark consumed.
	m.reads++
	m.touched[target] = true
	m.valid[target] = false
	blk := o.stash.NewBlock(id, m.leaves[target], o.cfg.BlockSize)
	d += o.chargeOrReadSlot(idx, target, blk)
	d += o.dram.Charge(device.OpWrite, 0, o.metaBytes())
	return d, blk, nil
}

// chargeOrReadSlot moves one slot's bytes (functional) or charges them
// (phantom). When blk is non-nil the payload is decrypted into it.
func (o *ORAM) chargeOrReadSlot(idx uint32, slot int, blk *stash.Block) time.Duration {
	d := o.dev.Charge(device.OpRead, 0, o.slotSize)
	if o.cfg.Phantom || blk == nil {
		return d
	}
	o.peekSlot(idx, slot, blk)
	return d
}

// peekSlot decrypts one slot's payload into blk without device
// accounting (the covering bucket/path transfer was already charged).
func (o *ORAM) peekSlot(idx uint32, slot int, blk *stash.Block) {
	if err := o.dev.PeekAt(o.slotAddr(idx, slot), o.stored); err != nil {
		panic(fmt.Sprintf("ringoram: slot read: %v", err)) // range bug, not runtime condition
	}
	plain := o.stored
	if o.cfg.Engine != nil {
		m := o.metaOf(idx)
		p, err := o.cfg.Engine.OpenTo(o.plain[:0], o.stored, slotSealID(idx, slot), m.ctr)
		if err != nil {
			panic(fmt.Sprintf("ringoram: slot auth: %v", err))
		}
		plain = p
	}
	copy(blk.Data, plain[slotMetaSize:])
}

// rewriteBucket writes bucket idx fresh: surviving valid blocks stay,
// touched flags clear, dummies are replenished. The caller supplies the
// path coordinates for stash eviction into this bucket.
func (o *ORAM) rewriteBucket(idx uint32, leaf uint32, level int) (time.Duration, error) {
	m := o.metaOf(idx)
	// Read all Z real slots (the transfer count must not depend on how
	// many survive), pulling valid blocks to the stash.
	d := o.dev.ChargeN(device.OpRead, o.slotSize, o.cfg.RealSlots)
	if !o.cfg.Phantom {
		for s := 0; s < o.cfg.RealSlots; s++ {
			if !m.valid[s] {
				continue
			}
			blk := o.stash.NewBlock(m.ids[s], m.leaves[s], o.cfg.BlockSize)
			o.peekSlot(idx, s, blk)
			if o.stash.Get(blk.ID) == nil {
				if err := o.stash.Put(blk); err != nil {
					return d, err
				}
			}
			m.valid[s] = false
		}
		o.stash.BeginEviction(leaf, o.levels)
	}
	return d + o.writeBucket(idx, level), nil
}

// writeBucket fills bucket idx, at depth level of the path the caller
// began evicting, from the stash and writes all slots.
func (o *ORAM) writeBucket(idx uint32, level int) time.Duration {
	m := o.metaOf(idx)
	m.ctr++
	m.written = true
	m.reads = 0
	for s := range m.touched {
		m.touched[s] = false
	}
	if !o.cfg.Phantom {
		picked := o.stash.Pick(level, o.cfg.RealSlots)
		for s := 0; s < o.cfg.RealSlots; s++ {
			if s < len(picked) {
				b := picked[s]
				m.ids[s] = b.ID
				m.leaves[s] = b.Leaf
				m.valid[s] = true
				o.writeSlot(idx, s, b)
			} else {
				m.ids[s] = invalidBlockID
				m.valid[s] = false
				o.writeSlot(idx, s, nil)
			}
		}
		for s := o.cfg.RealSlots; s < o.cfg.RealSlots+o.cfg.DummySlots; s++ {
			o.writeSlot(idx, s, nil)
		}
	}
	d := o.dev.ChargeN(device.OpWrite, o.slotSize, o.cfg.RealSlots+o.cfg.DummySlots)
	d += o.dram.Charge(device.OpWrite, 0, o.metaBytes())
	o.stats.BucketWrites++
	return d
}

// writeSlot seals and stores one slot (functional mode only).
func (o *ORAM) writeSlot(idx uint32, slot int, b *stash.Block) {
	m := o.metaOf(idx)
	plain := o.plain
	clear(plain)
	if b != nil {
		putUint64(plain, b.ID)
		putUint32(plain[8:], b.Leaf)
		copy(plain[slotMetaSize:], b.Data)
	} else {
		putUint64(plain, invalidBlockID)
	}
	stored := plain
	if o.cfg.Engine != nil {
		stored = o.cfg.Engine.SealTo(o.stored[:0], plain, slotSealID(idx, slot), m.ctr)
	}
	if err := o.dev.PokeAt(o.slotAddr(idx, slot), stored); err != nil {
		panic(fmt.Sprintf("ringoram: slot write: %v", err))
	}
}

// evictionLeaf is the reverse-lexicographic eviction order.
func (o *ORAM) evictionLeaf(g uint64) uint32 {
	w := bits.Len32(o.leaves - 1)
	if w == 0 {
		return 0
	}
	return uint32(bits.Reverse32(uint32(g%uint64(o.leaves)))) >> (32 - w)
}

// evictOnce performs the scheduled eviction: read surviving blocks on the
// eviction path, rewrite every bucket full.
func (o *ORAM) evictOnce() (time.Duration, error) {
	o.stats.Evictions++
	leaf := o.evictionLeaf(o.evictCount)
	o.evictCount++
	var total time.Duration
	// Read phase: all Z real slots of every path bucket (count must not
	// depend on occupancy); surviving valid blocks join the stash.
	for l := 0; l < o.levels; l++ {
		idx := o.bucketIndex(leaf, l)
		m := o.metaOf(idx)
		total += o.dev.ChargeN(device.OpRead, o.slotSize, o.cfg.RealSlots)
		if !o.cfg.Phantom {
			for s := 0; s < o.cfg.RealSlots; s++ {
				if !m.valid[s] {
					continue
				}
				blk := o.stash.NewBlock(m.ids[s], m.leaves[s], o.cfg.BlockSize)
				o.peekSlot(idx, s, blk)
				if o.stash.Get(blk.ID) == nil {
					if err := o.stash.Put(blk); err != nil {
						return total, err
					}
				}
				m.valid[s] = false
			}
		}
	}
	// Write phase: leaf → root.
	if !o.cfg.Phantom {
		o.stash.BeginEviction(leaf, o.levels)
	}
	for l := o.levels - 1; l >= 0; l-- {
		total += o.writeBucket(o.bucketIndex(leaf, l), l)
	}
	return total, nil
}

// slotSealID binds a slot's ciphertext to its (bucket, slot) location.
func slotSealID(idx uint32, slot int) uint64 {
	return uint64(idx)<<16 | uint64(slot)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putUint32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
