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
// counters host-side in internal/tree's bucket tree, and
// TestCountersFollowRootCounter checks them against g after every EO.
// Buckets move through that tree's path I/O (tree.Path, Tree.Write)
// uncharged: the SSD is charged a whole path per access (chargeAO,
// chargeEO).
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
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/persist"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tee"
	"repro/internal/tree"
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

	tree *tree.Tree // on the SSD: geometry, addresses, write counters, sealed images

	// vtree holds per-bucket valid bitmaps, lazily materialized; absent
	// means all-invalid (tree starts empty; reads fall back to InitFn).
	// It stays a map: paged.Table holds comparable values, not slices.
	vtree map[uint32][]byte
	// evictCount is g, the global EO counter (the root counter).
	evictCount uint64
	// pendingWrites counts write-backs since the last EO.
	pendingWrites int

	// taken holds the ids the eviction in flight has taken off its path:
	// a block the path shows twice (only after a failed bucket write left
	// a stale image valid) keeps its first, shallowest copy.
	taken map[uint64]struct{}

	// readers hold one DRAM path buffer each (see pathReader). readers[0]
	// serves every read on the caller's goroutine — evictions, Peek and
	// its share of a batch; AOAccessBatch runs readers[1:] on goroutines
	// of their own for a large batch, adding readers up to maxReaders
	// (SetReadWorkers) the first time a batch is large enough for them.
	readers    []*pathReader
	maxReaders int
	// The batch read's work list, cut into the leaf ranges the readers
	// take in turn (ranges[:live], next counting the ranges taken), and
	// the seam rule's per-level scratch (see AOAccessBatch); all kept for
	// their capacity. wg joins a split batch's goroutines.
	reads    []batchRead
	ranges   []readRange
	live     int
	next     atomic.Int32
	lastOpen []uint32
	wg       sync.WaitGroup
	batchDst []byte // the batch's caller buffer while its lookups run

	stats Stats
}

// batchRead is one id of an AOAccessBatch: where its payload goes in the
// caller's buffer and which path holds it, and where the lookup found it
// — in the stash, in slot bit of tree bucket at, or nowhere (at is
// tree.NoBucket: a never-written block).
type batchRead struct {
	id      uint64
	leaf    uint32
	slot    int32
	at      uint32
	bit     uint16
	stashed bool
}

// minReadsPerWorker is the smallest share of a batch worth a goroutine
// of its own: below it the hand-off and the re-read of the buckets two
// ranges share cost more than the second core saves. A split batch is
// cut into rangesPerWorker ranges per reader, taken in turn, so a
// reader that starts late or hits slower paths takes fewer.
const (
	minReadsPerWorker = 512
	rangesPerWorker   = 4
)

// readRange is one contiguous leaf range of a batch and what its lookup
// left: the engine work, the first and the last bucket opened at each
// level (tree.NoBucket for none), and the first failure and its index in
// reads.
type readRange struct {
	reads       []batchRead
	stats       tee.EngineStats
	first, last []uint32
	err         error
	errAt       int
}

// pathReader is one goroutine's DRAM path buffer of Sec 4.4. Every
// bucket read goes through one, and it is emptied at the start of each
// batch range, lookup and eviction.
type pathReader struct {
	path *tree.Path
	run  func() // work on a goroutine of its own, bound in newReader
}

// New creates the main ORAM over an SSD (tree) and a DRAM (VTree, stash,
// path buffer) device.
func New(cfg Config, ssd, dram device.Device) (*ORAM, error) {
	cfg, t, err := Layout(cfg, ssd.PageSize())
	if err != nil {
		return nil, err
	}
	o := &ORAM{cfg: cfg, ssd: ssd, dram: dram, tree: t}
	if !cfg.Phantom {
		o.lastOpen = make([]uint32, t.Levels())
		o.taken = make(map[uint64]struct{})
	}
	o.readers = []*pathReader{o.newReader()}
	o.maxReaders = 1
	if need := t.RequiredBytes(); ssd.Capacity() < need {
		return nil, fmt.Errorf("raworam: SSD capacity %d < required %d", ssd.Capacity(), need)
	}
	if o.cfg.StashCapacity == 0 {
		o.cfg.StashCapacity = cfg.BucketSlots*t.Levels() + 2*cfg.EvictPeriod + 128
	}
	o.stash = stash.New(o.cfg.StashCapacity)
	o.pos = position.NewSparse(cfg.NumBlocks, t.Leaves(), uint64(cfg.Seed)+1)
	o.src = persist.NewSource(cfg.Seed)
	o.rng = rand.New(o.src)
	o.vtree = make(map[uint32][]byte)
	return o, nil
}

// Layout derives what New builds for cfg on an SSD whose pages are
// pageSize bytes: cfg with Z, A and the amplification defaulted as Config
// says, and the bucket tree, each bucket padded to whole pages. It opens
// no device, so a caller can size the SSD (RequiredBytes) first.
func Layout(cfg Config, pageSize int) (Config, *tree.Tree, error) {
	if cfg.Amplification == 0 {
		cfg.Amplification = 2
	}
	if err := cfg.validate(); err != nil {
		return cfg, nil, err
	}
	pageSize = max(pageSize, 1)
	if cfg.BucketSlots == 0 {
		// Fill one SSD page with slots (leaving room for the seal tag).
		avail := pageSize
		if cfg.Engine != nil {
			avail -= tee.TagSize
		}
		cfg.BucketSlots = max(avail/(slotMetaSize+cfg.BlockSize), 2)
	}
	if cfg.EvictPeriod == 0 {
		cfg.EvictPeriod = max(cfg.BucketSlots*14/10, 1)
	}
	leaves, levels := tree.Geometry(cfg.NumBlocks, cfg.BucketSlots, cfg.Amplification)
	plain := cfg.BucketSlots * (slotMetaSize + cfg.BlockSize)
	return cfg, tree.New(leaves, levels, plain, cfg.Engine, pageSize, 0), nil
}

// RequiredBytes is the SSD footprint of the tree.
func (o *ORAM) RequiredBytes() uint64 { return o.tree.RequiredBytes() }

// VTreeBytes is the DRAM footprint of the VTree: one valid bit per slot
// plus the group-encryption metadata of Sec 5.2.
func (o *ORAM) VTreeBytes() uint64 {
	numBuckets := uint64(2*o.tree.Leaves() - 1)
	bitsPerBucket := uint64((o.cfg.BucketSlots + 7) / 8)
	payload := numBuckets * bitsPerBucket
	layout := tee.NewGroupLayout(tee.DefaultGroupSize, 2)
	return payload + uint64(float64(payload)*layout.OverheadRatio())
}

// Levels, Leaves, BucketSlots, EvictPeriod, BucketStoredSize expose the
// derived geometry.
func (o *ORAM) Levels() int           { return o.tree.Levels() }
func (o *ORAM) Leaves() uint32        { return o.tree.Leaves() }
func (o *ORAM) BucketSlots() int      { return o.cfg.BucketSlots }
func (o *ORAM) EvictPeriod() int      { return o.cfg.EvictPeriod }
func (o *ORAM) BucketStoredSize() int { return o.tree.BucketSize() }

// PathBytes is the SSD bytes of one full path transfer.
func (o *ORAM) PathBytes() uint64 { return o.tree.PathBytes() }

// SetReadWorkers lets AOAccessBatch split a large batch across up to n
// goroutines (n ≤ 1: the caller's alone, the default). The split changes
// only where the host-side work runs: payloads, VTree, engine counters
// and every stat come out exactly as from one goroutine.
func (o *ORAM) SetReadWorkers(n int) { o.maxReaders = max(n, 1) }

// newReader returns an empty path buffer over o's geometry.
func (o *ORAM) newReader() *pathReader {
	r := &pathReader{path: o.tree.NewPath()}
	r.run = func() {
		defer o.wg.Done()
		r.work(o)
	}
	return r
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

func (o *ORAM) randomLeaf() uint32 { return uint32(o.rng.Int63n(int64(o.tree.Leaves()))) }

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
	return uint64(o.tree.Levels()) * (per + tee.TagSize/2)
}

// chargeAO accounts the device traffic of one AO access and returns its
// modelled duration: SSD path read; DRAM path-buffer fill + scan; one
// stash presence scan; VTree path read+write.
func (o *ORAM) chargeAO() time.Duration {
	var d time.Duration
	pb := int(o.PathBytes())
	d += o.tree.ChargePath(o.ssd, device.OpRead)
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
	d += o.tree.ChargePath(o.ssd, device.OpRead)
	d += o.tree.ChargePath(o.ssd, device.OpWrite)
	d += o.dram.Charge(device.OpWrite, 0, pb) // path into DRAM
	d += o.dram.Charge(device.OpRead, 0, pb)  // path back out
	scans := o.tree.Levels()
	if !o.cfg.HasScratchpad {
		scans = o.tree.Levels() * o.cfg.BucketSlots
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
// once good for the whole batch — and what lets the lookups run on
// several goroutines (SetReadWorkers): a batch of at least
// minReadsPerWorker ids per reader is cut into contiguous leaf ranges
// that the readers take in turn, each walked through the taking
// reader's path buffer, and the results are applied in leaf order after
// the readers join, so the ORAM and the engine counters end up as after
// one walk (a bucket at the seam of two ranges is fetched for both but
// counted once).
//
// An out-of-range or repeated id fails the batch before any state
// changes (phantom mode, which keeps no per-block state a repeat could
// corrupt, does not look for repeats). A device or authentication error
// aborts it midway: the blocks before the failing lookup in leaf order
// are gone from the ORAM and dst is partly filled, as after a failed
// access in a sequence of single ones.
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
	workers := 1
	if !o.cfg.Phantom {
		// Ascending (leaf, id) is the lookup order below; it also puts a
		// repeated id next to itself.
		o.reads = o.reads[:0]
		for i, id := range ids {
			o.reads = append(o.reads, batchRead{id: id, leaf: o.pos.Get(id), slot: int32(i)})
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
		// Consecutive paths share their upper buckets and, in leaf order,
		// a level's bucket index never decreases: a slot that has moved on
		// is never wanted again, so one slot per level holds a whole
		// range's union. Blocks awaiting eviction from a previous round's
		// write-back are in the stash, which only this goroutine touches;
		// the tree lookups only read the ORAM, so the other readers start
		// on theirs at once, beside the charges below.
		for i := range o.reads {
			o.reads[i].stashed = o.stash.Get(o.reads[i].id) != nil
		}
		workers = min(o.maxReaders, max(len(o.reads)/minReadsPerWorker, 1))
		o.cut(workers)
		o.batchDst = dst
		o.wg.Add(workers - 1)
		for _, r := range o.readers[1:workers] {
			go r.run()
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
	o.readers[0].work(o)
	o.wg.Wait()
	o.batchDst = nil

	// Join in leaf order, as if one reader had walked every range: the
	// first failure ends the batch where the single walk would have
	// stopped, so later ranges count nothing and apply nothing, and a
	// bucket two ranges both opened at one level — the seam — counts
	// once, as the single walk opens it once.
	var (
		st  tee.EngineStats
		err error
		end int
	)
	plainLen := uint64(o.tree.PlainSize())
	for l := range o.lastOpen {
		o.lastOpen[l] = tree.NoBucket
	}
	for i := range o.ranges[:o.live] {
		rg := &o.ranges[i]
		st.Add(rg.stats)
		for l, idx := range rg.first {
			if idx != tree.NoBucket && idx == o.lastOpen[l] {
				st.GroupsOpened--
				st.BytesOpened -= plainLen
			}
			if rg.last[l] != tree.NoBucket {
				o.lastOpen[l] = rg.last[l]
			}
		}
		if rg.err != nil {
			err, end = rg.err, end+rg.errAt
			break
		}
		end += len(rg.reads)
	}
	if o.cfg.Engine != nil {
		o.cfg.Engine.AddStats(st)
	}
	for _, r := range o.reads[:end] {
		out := dst[int(r.slot)*bs : int(r.slot+1)*bs]
		switch {
		case r.stashed:
			copy(out, o.stash.Remove(r.id).Data)
		case r.at != tree.NoBucket:
			clearBit(o.vtree[r.at], int(r.bit))
		default:
			tree.InitBlock(out, r.id, o.cfg.InitFn)
		}
	}
	return d, err
}

// cut readies the batch for workers readers: one leaf range for one,
// rangesPerWorker each for more, the reads shared out evenly in order.
func (o *ORAM) cut(workers int) {
	for len(o.readers) < workers {
		o.readers = append(o.readers, o.newReader())
	}
	o.live = 1
	if workers > 1 {
		o.live = workers * rangesPerWorker
	}
	for len(o.ranges) < o.live {
		o.ranges = append(o.ranges, readRange{first: make([]uint32, o.tree.Levels()), last: make([]uint32, o.tree.Levels())})
	}
	lo := 0
	for i := range o.live {
		hi := lo + (len(o.reads)-lo)/(o.live-i)
		o.ranges[i].reads = o.reads[lo:hi]
		lo = hi
	}
	o.next.Store(0)
}

// work looks up batch ranges, each the next one no reader has taken,
// until none is left.
func (r *pathReader) work(o *ORAM) {
	for {
		i := int(o.next.Add(1)) - 1
		if i >= o.live {
			return
		}
		r.lookup(o, &o.ranges[i])
	}
}

// lookup finds rg's blocks in the tree through r's path buffer: each one
// not in the stash is looked up on its path, its payload copied into the
// caller's buffer and its bucket and slot noted; the first failure ends
// the range. It reads the ORAM and writes only r, rg and rg's reads, so
// readers can look up their ranges at once.
func (r *pathReader) lookup(o *ORAM, rg *readRange) {
	bs := o.cfg.BlockSize
	r.path.Reset()
	rg.err, rg.errAt, rg.stats = nil, 0, tee.EngineStats{}
	for i := range rg.reads {
		br := &rg.reads[i]
		br.at = tree.NoBucket
		if br.stashed {
			continue
		}
		at, bit, err := r.find(o, br.leaf, br.id, o.batchDst[int(br.slot)*bs:int(br.slot+1)*bs], &rg.stats)
		if err != nil {
			rg.err, rg.errAt = err, i
			break
		}
		br.at, br.bit = at, uint16(bit)
	}
	copy(rg.first, r.path.First())
	copy(rg.last, r.path.Held())
}

// AODummy performs an indistinguishable access to a random path without
// retrieving anything (FEDORA's dummy accesses, Sec 4.2).
func (o *ORAM) AODummy() (time.Duration, error) {
	o.stats.AOAccesses++
	d := o.chargeAO()
	o.stats.Time += d
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
	if !o.cfg.Phantom {
		newLeaf := o.randomLeaf()
		o.pos.Set(id, newLeaf)
		blk := o.stash.NewBlock(id, newLeaf, o.cfg.BlockSize)
		copy(blk.Data, data)
		if err := o.stash.Put(blk); err != nil {
			return 0, err
		}
	}
	// One oblivious stash pass to insert without leaking the slot.
	return o.scheduleEO(o.dram.Charge(device.OpWrite, 0, int(o.stashScanBytes())))
}

// WriteBackDummy accounts a dummy write-back (k > k_union during step ⑦):
// the stash pass happens and the EO schedule advances, but no real block
// enters the stash.
func (o *ORAM) WriteBackDummy() (time.Duration, error) {
	o.stats.WriteBacks++
	return o.scheduleEO(o.dram.Charge(device.OpWrite, 0, int(o.stashScanBytes())))
}

// scheduleEO counts one access towards the eviction period, runs the EO
// access it completes, if any, and accounts d and the eviction's time.
func (o *ORAM) scheduleEO(d time.Duration) (time.Duration, error) {
	var err error
	o.pendingWrites++
	if o.pendingWrites >= o.cfg.EvictPeriod {
		o.pendingWrites = 0
		var ed time.Duration
		ed, err = o.evictOnce()
		d += ed
	}
	o.stats.Time += d
	return d, err
}

// evictOnce performs one EO access on the next deterministic path, in
// one read–plan–write pass: the path is read into the caller's path
// buffer and each valid block is Taken into the stash's eviction where it
// lies, its VTree bit cleared (a block the stash or a shallower slot
// already holds keeps that copy: under the AO-before-WriteBack discipline
// it never happens); the residents join; the stash plans the path;
// storeBucket writes it back leaf first; and the stash settles what no
// bucket took — on a failure too.
func (o *ORAM) evictOnce() (time.Duration, error) {
	o.stats.EOAccesses++
	d := o.chargeEO()
	leaf := o.tree.EvictionLeaf(o.evictCount)
	o.evictCount++
	if o.cfg.Phantom {
		return d, nil
	}
	o.stash.Begin()
	clear(o.taken)
	o.readers[0].path.Reset()
	slot := slotMetaSize + o.cfg.BlockSize
	for l := 0; l < o.tree.Levels(); l++ {
		idx := o.tree.Index(leaf, l)
		plain, _, err := o.readers[0].path.Read(o.ssd, l, idx, false, nil)
		if err != nil {
			return d, o.stash.Settle(0, err)
		}
		if plain == nil {
			continue // never written
		}
		vb := o.validBits(idx)
		for s := 0; s < o.cfg.BucketSlots; s++ {
			if !getBit(vb, s) {
				continue
			}
			blk := plain[s*slot : (s+1)*slot]
			id := binary.LittleEndian.Uint64(blk)
			if _, dup := o.taken[id]; !dup && id != invalidBlockID && o.stash.Get(id) == nil {
				if err := o.stash.Take(id, binary.LittleEndian.Uint32(blk[8:]), blk[slotMetaSize:]); err != nil {
					return d, o.stash.Settle(0, err)
				}
				o.taken[id] = struct{}{}
			}
			clearBit(vb, s)
		}
	}
	o.stash.JoinResidents()
	o.stash.Plan(leaf, o.tree.Levels(), o.tree.Levels()-1, o.cfg.BucketSlots)
	for l := o.tree.Levels() - 1; l >= 0; l-- {
		if err := o.storeBucket(o.tree.Index(leaf, l), o.stash.Bucket(l)); err != nil {
			return d, o.stash.Settle(l, err)
		}
	}
	return d, o.stash.Settle(0, nil)
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
	o.readers[0].path.Reset()
	at, _, err := o.readers[0].find(o, o.pos.Get(id), id, out, nil)
	if err != nil {
		return nil, err
	}
	if at == tree.NoBucket {
		tree.InitBlock(out, id, o.cfg.InitFn)
	}
	return out, nil
}

// EachBucket authenticates and opens every written bucket of the tree
// at its current counter, in index order, and hands fn the plaintext,
// which is valid only during the call. Like Peek it is an evaluation
// backdoor that charges no device time and moves no ORAM state (a
// sealed tree's opens do count in the engine's work counters): it is
// the tree as the controller sees it, whatever it is sealed into.
func (o *ORAM) EachBucket(fn func(idx uint32, plain []byte)) error {
	if o.cfg.Phantom {
		return nil
	}
	o.readers[0].path.Reset()
	return o.tree.EachWritten(func(idx uint32) error {
		plain, _, err := o.readers[0].path.Read(o.ssd, 0, idx, false, nil)
		if err != nil {
			return fmt.Errorf("raworam: bucket %d: %w", idx, err)
		}
		fn(idx, plain)
		return nil
	})
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

// find scans the path to leaf, root first, through r's path buffer for
// block id, copies its payload into dst and reports the bucket and slot
// that hold it, stopping there (tree.NoBucket when no written bucket on
// the path does). Buckets the path buffer holds are not read again: the
// caller resets it before the first lookup of a batch. Each bucket moves
// uncharged, chargeAO having charged the whole path; find moves no state
// but r's and st's (see tree.Path.Read).
func (r *pathReader) find(o *ORAM, leaf uint32, id uint64, dst []byte, st *tee.EngineStats) (uint32, int, error) {
	for l := 0; l < o.tree.Levels(); l++ {
		idx := o.tree.Index(leaf, l)
		plain, _, err := r.path.Read(o.ssd, l, idx, false, st)
		if err != nil {
			return tree.NoBucket, 0, err
		}
		if plain == nil {
			continue // never written
		}
		vb := o.vtree[idx]
		for s := 0; s < o.cfg.BucketSlots; s++ {
			if !getBit(vb, s) {
				continue
			}
			off := s * (slotMetaSize + o.cfg.BlockSize)
			if binary.LittleEndian.Uint64(plain[off:]) != id {
				continue
			}
			copy(dst, plain[off+slotMetaSize:off+slotMetaSize+o.cfg.BlockSize])
			return idx, s, nil
		}
	}
	return tree.NoBucket, 0, nil
}

// storeBucket packs, seals and writes bucket idx with the given entries
// of the stash's eviction, updating the VTree bitmap. The write moves
// uncharged, chargeEO having charged the whole path.
func (o *ORAM) storeBucket(idx uint32, bucket []int32) error {
	plain := o.tree.Plain()
	clear(plain) // empty slots read as zero after the id, as in a fresh image
	vb := o.validBits(idx)
	entries := o.stash.Entries()
	for s := 0; s < o.cfg.BucketSlots; s++ {
		off := s * (slotMetaSize + o.cfg.BlockSize)
		if s < len(bucket) {
			e := &entries[bucket[s]]
			binary.LittleEndian.PutUint64(plain[off:], e.ID)
			binary.LittleEndian.PutUint32(plain[off+8:], e.Leaf)
			copy(plain[off+slotMetaSize:], e.Data)
			setBit(vb, s)
		} else {
			binary.LittleEndian.PutUint64(plain[off:], invalidBlockID)
			clearBit(vb, s)
		}
	}
	_, err := o.tree.Write(o.ssd, idx, false)
	return err
}
