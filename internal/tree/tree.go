// Package tree is the bucket tree under the tree ORAMs (Path ORAM,
// Sec 2.3; FEDORA's RAW ORAM, Sec 4.4; Ring ORAM): bucket addresses, the
// eviction order, per-bucket write counters, the sealed bucket image and
// the path I/O: Path reads a path into a DRAM path buffer, Write seals
// and writes a bucket, ChargePath charges a path. Each ORAM keeps its
// slot layout and access algorithm; Ring ORAM, which seals slot by slot,
// uses only the addressing and the eviction order.
//
// Read and Write take charge: true moves and charges a bucket (ReadAt,
// WriteAt), as Path ORAM does; false moves it uncharged (PeekAt, PokeAt)
// under the caller's ChargePath, as the RAW ORAM does, whose lookup
// stops early and skips never-written buckets — so it is asked for less
// than it charges (docs/ARCHITECTURE.md §3).
//
// A tree of L levels is a heap of 2^L - 1 buckets, root at index 0,
// stored back to back from a base address: the plaintext, sealed under
// (index, write counter) when there is a TEE engine, zero-padded to
// whole pages when page aligned. A counter of 0 means never written.
// FEDORA stores no per-bucket counters: buckets are written only on the
// reverse-lexicographic eviction schedule, so the root counter g
// determines each one (Sec 5.2; raworam.TestCountersFollowRootCounter).
// The simulator keeps them host-side, one paged.Table per tree.
package tree

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/device"
	"repro/internal/paged"
	"repro/internal/persist"
	"repro/internal/tee"
)

// Geometry computes the tree shape for numBlocks blocks in buckets of
// bucketSlots slots with amplification × numBlocks slots in all: a
// power-of-two leaf count (at least 2) and the levels, root inclusive.
func Geometry(numBlocks uint64, bucketSlots int, amplification float64) (leaves uint32, levels int) {
	// total slots ≈ 2 * leaves * Z; target amplification*N slots.
	target := uint64(amplification*float64(numBlocks))/uint64(2*bucketSlots) + 1
	l := uint64(2)
	for l < target {
		l <<= 1
	}
	return uint32(l), bits.Len64(l)
}

// Tree is one ORAM's bucket tree, for one goroutine at a time but for
// Counter and Path reads, which readers on several may make at once
// while none writes.
type Tree struct {
	levels int
	leaves uint32
	plain  int    // plaintext bytes per bucket
	size   int    // stored bytes per bucket: sealed, then padded
	base   uint64 // device address of bucket 0
	engine *tee.Engine
	ctrs   paged.Table[uint64] // write counters by bucket index

	// Write's buffer: the plaintext and the stored image, whose front the
	// plaintext is when there is no engine.
	wplain, wstored []byte
}

// New returns the tree of levels levels over leaves leaves (Geometry's
// pair) whose buckets hold plain plaintext bytes each, sealed by engine
// (nil stores them as they are) and padded to a multiple of align bytes
// (align ≤ 1: unpadded), from device address base on.
func New(leaves uint32, levels int, plain int, engine *tee.Engine, align int, base uint64) *Tree {
	size := plain
	if engine != nil {
		size = tee.SealedSize(plain)
	}
	if align > 1 {
		size = (size + align - 1) / align * align
	}
	t := &Tree{levels: levels, leaves: leaves, plain: plain, size: size, base: base, engine: engine, wstored: make([]byte, size)}
	t.wplain = t.wstored[:plain]
	if engine != nil {
		t.wplain = make([]byte, plain)
	}
	return t
}

// Levels (root inclusive), Leaves, BucketSize (stored bytes), PlainSize,
// RequiredBytes (the tree's device bytes from its base) and PathBytes
// give the tree's shape.
func (t *Tree) Levels() int           { return t.levels }
func (t *Tree) Leaves() uint32        { return t.leaves }
func (t *Tree) BucketSize() int       { return t.size }
func (t *Tree) PlainSize() int        { return t.plain }
func (t *Tree) RequiredBytes() uint64 { return uint64(2*t.leaves-1) * uint64(t.size) }
func (t *Tree) PathBytes() uint64     { return uint64(t.levels) * uint64(t.size) }

// Index returns the heap index of the bucket at level on the path to
// leaf (the root is level 0, index 0).
func (t *Tree) Index(leaf uint32, level int) uint32 {
	return (uint32(1) << level) - 1 + (leaf >> (t.levels - 1 - level))
}

// Addr returns the device address of bucket idx.
func (t *Tree) Addr(idx uint32) uint64 { return t.base + uint64(idx)*uint64(t.size) }

// EvictionLeaf returns the leaf of the g-th scheduled eviction: the
// reverse-lexicographic order of Gentry et al., which covers the tree
// evenly and makes every bucket's write count a function of g.
func (t *Tree) EvictionLeaf(g uint64) uint32 {
	w := bits.Len32(t.leaves - 1) // log2(leaves)
	if w == 0 {
		return 0
	}
	return bits.Reverse32(uint32(g%uint64(t.leaves))) >> (32 - w)
}

// Counter returns bucket idx's write counter, 0 if it was never written.
// It moves no state, so readers on several goroutines may call it at once
// while nothing seals.
func (t *Tree) Counter(idx uint32) uint64 { return t.ctrs.At(uint64(idx)) }

// Written returns the number of buckets ever written.
func (t *Tree) Written() int { return t.ctrs.Len() }

// Seal makes stored (BucketSize bytes) the image of bucket idx holding
// plain: it advances the bucket's write counter, seals plain under
// (idx, counter) — or copies it, without an engine, unless plain is
// stored's front — and zeroes the padding, which is stored too.
//
// The counter advances here, before the caller's device write, so a
// failed write leaves a sealed bucket that no longer opens. Advancing it
// only after a successful write is unsafe: storage.File can report an
// fsync error after the new image landed, and the next write would then
// seal a different image under the same (bucket, counter) nonce. The
// order stays until buckets are sealed under a key per epoch.
func (t *Tree) Seal(idx uint32, plain, stored []byte) {
	ctr := t.ctrs.Get(uint64(idx)) + 1
	t.ctrs.Set(uint64(idx), ctr)
	n := len(plain)
	switch {
	case t.engine != nil:
		n = len(t.engine.SealTo(stored[:0], plain, uint64(idx), ctr))
	case &plain[0] != &stored[0]:
		copy(stored, plain)
	}
	clear(stored[n:])
}

// Plain returns the write buffer's plaintext, PlainSize bytes the caller
// packs the next bucket into. It is the same buffer on every call, and
// Write leaves it as it was, so a caller may repack only what changed.
func (t *Tree) Plain() []byte { return t.wplain }

// Write makes Plain the next image of bucket idx (Seal) and writes it to
// dev, charged or not (see the package doc).
func (t *Tree) Write(dev device.Device, idx uint32, charge bool) (time.Duration, error) {
	t.Seal(idx, t.wplain, t.wstored)
	if charge {
		return dev.WriteAt(t.Addr(idx), t.wstored)
	}
	return 0, dev.PokeAt(t.Addr(idx), t.wstored)
}

// ChargePath charges dev for one path of op without moving a byte:
// Levels transfers of BucketSize bytes.
func (t *Tree) ChargePath(dev device.Device, op device.Op) time.Duration {
	return dev.ChargeN(op, t.size, t.levels)
}

// Open opens bucket idx, written at counter ctr, in place: slot holds its
// image, and the plaintext returned is slot's front. The open (or its
// authentication failure) is counted in st, or in the engine when st is
// nil, so goroutines with an Opener and stats each may open at once.
// Without an engine the image is the plaintext, and nothing is counted.
func (t *Tree) Open(opener *tee.Opener, slot []byte, idx uint32, ctr uint64, st *tee.EngineStats) ([]byte, error) {
	if t.engine == nil {
		return slot[:t.plain], nil
	}
	d := tee.EngineStats{GroupsOpened: 1, BytesOpened: uint64(t.plain)}
	plain, err := opener.Open(slot, slot[:tee.SealedSize(t.plain)], uint64(idx), ctr)
	if err != nil {
		d = tee.EngineStats{AuthFailures: 1}
	}
	if st == nil {
		t.engine.AddStats(d)
	} else {
		st.Add(d)
	}
	return plain, err
}

// NoBucket names no bucket: a Path level that holds none (no tree has
// 2^32-1 buckets).
const NoBucket = ^uint32(0)

// Path is a DRAM path buffer (Sec 4.4): one stored bucket per level, the
// bucket each level holds and the first bucket each level read since
// Reset. A sealed bucket is opened in place, so a level holds the
// plaintext in its first bytes. A Path is one goroutine's; Paths on
// several may read one tree at once while nothing writes it, each
// counting its opens in stats of its own.
type Path struct {
	t      *Tree
	buf    []byte
	held   []uint32
	first  []uint32
	opener tee.Opener
}

// NewPath returns an empty path buffer over t.
func (t *Tree) NewPath() *Path {
	p := &Path{t: t, buf: make([]byte, t.PathBytes()), held: make([]uint32, t.levels), first: make([]uint32, t.levels)}
	if t.engine != nil {
		p.opener = t.engine.Opener()
	}
	p.Reset()
	return p
}

// Reset empties every level. Nothing a level holds outlives the
// operation that read and authenticated it: each operation resets first.
func (p *Path) Reset() {
	for l := range p.held {
		p.held[l] = NoBucket
		p.first[l] = NoBucket
	}
}

// Held and First return, per level, the bucket it holds and the first
// bucket an uncharged Read opened there since Reset (NoBucket for none).
// They are the Path's own; the caller reads them only.
func (p *Path) Held() []uint32  { return p.held }
func (p *Path) First() []uint32 { return p.first }

// Read returns the plaintext of bucket idx, on level l, valid until the
// level reads another bucket; a never-written bucket is nil. A read
// bucket is opened in place, the open counted in st (nil: in the
// engine). A charged Read always reads the bucket from dev and leaves
// the level holding nothing. An uncharged one returns a bucket the level
// holds before its counter is looked up, and moves nothing for a
// never-written bucket, leaving the level as it was. A failed read
// leaves the level holding nothing.
func (p *Path) Read(dev device.Device, l int, idx uint32, charge bool, st *tee.EngineStats) ([]byte, time.Duration, error) {
	t := p.t
	slot := p.buf[l*t.size : (l+1)*t.size : (l+1)*t.size]
	if charge {
		p.held[l] = NoBucket
		d, err := dev.ReadAt(t.Addr(idx), slot)
		if ctr := t.Counter(idx); err == nil && ctr != 0 {
			plain, err := t.Open(&p.opener, slot, idx, ctr, st)
			return plain, d, err
		}
		return nil, d, err
	}
	if p.held[l] == idx {
		return slot[:t.plain], 0, nil
	}
	ctr := t.Counter(idx)
	if ctr == 0 {
		return nil, 0, nil
	}
	p.held[l] = NoBucket
	if err := dev.PeekAt(t.Addr(idx), slot); err != nil {
		return nil, 0, err
	}
	plain, err := t.Open(&p.opener, slot, idx, ctr, st)
	if err != nil {
		return nil, 0, err
	}
	if p.first[l] == NoBucket {
		p.first[l] = idx
	}
	p.held[l] = idx
	return plain, 0, nil
}

// EachWritten calls fn with every written bucket's index, in ascending
// index order, until fn fails.
func (t *Tree) EachWritten(fn func(idx uint32) error) error {
	var err error
	t.ctrs.Range(func(idx, _ uint64) {
		if err == nil {
			err = fn(uint32(idx))
		}
	})
	return err
}

// EncodeCounters appends the counters' snapshot section: the number of
// written buckets, then one (u32 index, u64 counter) pair each, in
// ascending index order.
func (t *Tree) EncodeCounters(e *persist.Encoder) {
	e.U64(uint64(t.ctrs.Len()))
	t.ctrs.Range(func(idx, ctr uint64) {
		e.U32(uint32(idx))
		e.U64(ctr)
	})
}

// Counters are decoded write counters by bucket index (0 = never
// written), for SetCounters.
type Counters struct{ paged.Table[uint64] }

// DecodeCounters reads a section EncodeCounters wrote. A zero counter is
// refused by bucket: EncodeCounters never writes one, and a bucket
// "written at counter 0" would be opened under a nonce no seal used.
func DecodeCounters(d *persist.Decoder) (Counters, error) {
	var c Counters
	n := d.U64()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		idx, ctr := d.U32(), d.U64()
		if d.Err() == nil && ctr == 0 {
			return Counters{}, fmt.Errorf("tree: bucket %d has write counter 0", idx)
		}
		c.Set(uint64(idx), ctr)
	}
	return c, d.Err()
}

// SetCounters replaces the write counters with decoded ones.
func (t *Tree) SetCounters(c Counters) { t.ctrs = c.Table }

// InitBlock fills dst with the initial contents of never-written block
// id: fn's (nil means zeros), which must be len(dst) bytes.
func InitBlock(dst []byte, id uint64, fn func(id uint64) []byte) {
	if fn == nil {
		clear(dst)
		return
	}
	b := fn(id)
	if len(b) != len(dst) {
		panic(fmt.Sprintf("tree: InitFn returned %d bytes, want %d", len(b), len(dst)))
	}
	copy(dst, b)
}
