// Package tree is the bucket tree under the tree ORAMs (Path ORAM,
// Sec 2.3; FEDORA's RAW ORAM, Sec 4.4; Ring ORAM): bucket addresses, the
// eviction order, per-bucket write counters and the sealed bucket image.
// Each ORAM keeps its slot layout, access algorithm, path buffer and
// device calls; Ring ORAM, which seals slot by slot, uses only the
// addressing and the eviction order.
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
// Counter, which readers on several may call at once while none seals.
type Tree struct {
	levels int
	leaves uint32
	plain  int    // plaintext bytes per bucket
	size   int    // stored bytes per bucket: sealed, then padded
	base   uint64 // device address of bucket 0
	engine *tee.Engine
	ctrs   paged.Table[uint64] // write counters by bucket index
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
	return &Tree{levels: levels, leaves: leaves, plain: plain, size: size, base: base, engine: engine}
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

// Slot returns level l's bucket in path, a path buffer of PathBytes
// bytes holding a path's buckets root first.
func (t *Tree) Slot(path []byte, l int) []byte { return path[l*t.size : (l+1)*t.size : (l+1)*t.size] }

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

// EachWritten calls fn with every written bucket's index and counter, in
// ascending index order, until fn fails.
func (t *Tree) EachWritten(fn func(idx uint32, ctr uint64) error) error {
	var err error
	t.ctrs.Range(func(idx, ctr uint64) {
		if err == nil {
			err = fn(uint32(idx), ctr)
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
