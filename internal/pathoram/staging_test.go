package pathoram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tee"
	"repro/internal/tree"
)

// refAccess is one access the way it ran before the read–plan–write
// kernel: every block on the path is Put into the stash's index, and
// eviction picks each bucket's blocks with refBucket and deletes them
// again. Kept as the reference model only.
func refAccess(o *ORAM, id uint64, mutate func(blk *stash.Block)) error {
	o.stats.Accesses++
	newLeaf := o.randomLeaf()
	leaf := position.GetSet(o.pos, id, newLeaf)
	var dur time.Duration
	stored := make([]byte, o.tree.BucketSize())
	for l := 0; l < o.tree.Levels(); l++ {
		idx := o.tree.Index(leaf, l)
		o.stats.BucketReads++
		d, err := o.dev.ReadAt(o.tree.Addr(idx), stored)
		dur += d
		if err != nil {
			return err
		}
		ctr := o.tree.Counter(idx)
		if ctr == 0 {
			continue
		}
		plain := stored[:o.tree.PlainSize()]
		if o.engine != nil {
			if plain, err = o.engine.Open(stored[:tee.SealedSize(len(plain))], uint64(idx), ctr); err != nil {
				return err
			}
		}
		slot := slotMetaSize + o.cfg.BlockSize
		for s := 0; s < o.cfg.BucketSlots; s++ {
			meta := plain[s*slot:]
			if meta[12] != 1 {
				continue
			}
			blk := o.stash.NewBlock(binary.LittleEndian.Uint64(meta), binary.LittleEndian.Uint32(meta[8:]), o.cfg.BlockSize)
			copy(blk.Data, meta[slotMetaSize:])
			if err := o.stash.Put(blk); err != nil {
				return err
			}
		}
	}
	blk := o.stash.Get(id)
	if blk == nil {
		blk = o.stash.NewBlock(id, 0, o.cfg.BlockSize)
		tree.InitBlock(blk.Data, id, o.cfg.InitFn)
		if err := o.stash.Put(blk); err != nil {
			return err
		}
	}
	blk.Leaf = newLeaf
	mutate(blk)
	d, err := refEvict(o, leaf)
	if err != nil {
		return err
	}
	o.stats.Time += dur + d
	return nil
}

// refBucket is the eviction rule written out literally: the bucket at
// level on the path to leaf takes the z lowest ids allowed there among
// the stash's blocks, found by sorting the ids and scanning them; it
// removes and returns them. Called leaf → root, each bucket chooses among
// the blocks no deeper bucket took. Kept as the reference model only.
func refBucket(s *stash.Stash, leaf uint32, levels, level, z int) []*stash.Block {
	var out []*stash.Block
	shift := uint(levels - 1 - level)
	for _, id := range s.IDs() {
		if b := s.Get(id); b.Leaf>>shift == leaf>>shift && len(out) < z {
			out = append(out, b)
		}
	}
	for _, b := range out {
		s.Remove(b.ID)
	}
	return out
}

// refEvict writes the path to leaf back leaf first, each bucket taking
// the blocks refBucket chooses for it.
func refEvict(o *ORAM, leaf uint32) (time.Duration, error) {
	var total time.Duration
	slot := slotMetaSize + o.cfg.BlockSize
	plain, stored := make([]byte, o.tree.PlainSize()), make([]byte, o.tree.BucketSize())
	for l := o.tree.Levels() - 1; l >= 0; l-- {
		idx := o.tree.Index(leaf, l)
		picked := refBucket(o.stash, leaf, o.tree.Levels(), l, o.cfg.BucketSlots)
		clear(plain)
		for s := 0; s < o.cfg.BucketSlots; s++ {
			meta := plain[s*slot:]
			if s < len(picked) {
				binary.LittleEndian.PutUint64(meta, picked[s].ID)
				binary.LittleEndian.PutUint32(meta[8:], picked[s].Leaf)
				meta[12] = 1
				copy(meta[slotMetaSize:], picked[s].Data)
			} else {
				binary.LittleEndian.PutUint64(meta, invalidBlockID)
			}
		}
		o.tree.Seal(idx, plain, stored)
		o.stats.BucketWrite++
		d, err := o.dev.WriteAt(o.tree.Addr(idx), stored)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// twinOp is one seeded call, applied to the ORAM under test through its
// public API and to the reference through refAccess.
type twinOp struct {
	kind int // 0 read, 1 write, 2 update
	id   uint64
	data []byte
}

func (op twinOp) run(o *ORAM) ([]byte, error) {
	switch op.kind {
	case 0:
		out, _, err := o.Read(op.id)
		return out, err
	case 1:
		_, err := o.Write(op.id, op.data)
		return nil, err
	default:
		_, err := o.Update(op.id, func(data []byte) { data[0] ^= op.data[0] })
		return nil, err
	}
}

func (op twinOp) runRef(o *ORAM) ([]byte, error) {
	var out []byte
	err := refAccess(o, op.id, func(blk *stash.Block) {
		switch op.kind {
		case 0:
			out = append([]byte(nil), blk.Data...)
		case 1:
			blk.Data = append(blk.Data[:0], op.data...)
		default:
			blk.Data[0] ^= op.data[0]
		}
	})
	return out, err
}

func randomOp(rng *rand.Rand, numBlocks, blockSize int) twinOp {
	op := twinOp{kind: rng.Intn(3), id: uint64(rng.Intn(numBlocks)), data: make([]byte, blockSize)}
	rng.Read(op.data)
	return op
}

func sameState(t *testing.T, step int, got, ref *ORAM, gotDev, refDev *device.Sim) {
	t.Helper()
	if got.StashLen() != ref.StashLen() || got.StashPeak() != ref.StashPeak() {
		t.Fatalf("step %d: stash len/peak %d/%d, reference %d/%d",
			step, got.StashLen(), got.StashPeak(), ref.StashLen(), ref.StashPeak())
	}
	a, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("step %d: ORAM snapshots differ", step)
	}
	da, _ := gotDev.Snapshot()
	db, _ := refDev.Snapshot()
	if !bytes.Equal(da, db) {
		t.Fatalf("step %d: device images differ", step)
	}
}

// TestStagedPathMatchesIndexedPath: the access kernel, which keeps the
// path's blocks where they were read and plans every bucket in one pass,
// against refAccess, which indexes each block in the stash and picks
// each bucket by rescanning it. Twin ORAMs over thousands of mixed
// calls on a tree small enough that paths fill, evictions leave blocks
// behind, requests hit stash residents and never-written ids keep turning
// up. After every call the payload, the ORAM snapshot (stash in id order,
// position map, counters, RNG), the device image and the stash's
// occupancy and high-water mark equal the reference's.
func TestStagedPathMatchesIndexedPath(t *testing.T) {
	for _, z := range []int{2, 4} {
		cfg := Config{NumBlocks: 96, BlockSize: 16, BucketSlots: z, Amplification: 2, Seed: int64(20 + z), Engine: testEngine()}
		got, gotDev := newTestORAM(t, cfg)
		ref, refDev := newTestORAM(t, cfg)
		rng := rand.New(rand.NewSource(int64(z)))
		leftovers := 0
		for step := 0; step < 2500; step++ {
			op := randomOp(rng, 96, 16)
			a, err := op.run(got)
			if err != nil {
				t.Fatalf("Z=%d step %d: %v", z, step, err)
			}
			b, err := op.runRef(ref)
			if err != nil {
				t.Fatalf("Z=%d step %d (reference): %v", z, step, err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("Z=%d step %d: read %x, reference %x", z, step, a, b)
			}
			sameState(t, step, got, ref, gotDev, refDev)
			if got.StashLen() > 0 {
				leftovers++
			}
		}
		if leftovers == 0 {
			t.Errorf("Z=%d: no access left a block in the stash; the tree is too roomy to test leftovers", z)
		}
	}
}

// TestStagedPathOverflowsWhereIndexedPathDid: with a stash too small for
// a full path, the kernel and refAccess both fail with stash.ErrOverflow at the same access.
func TestStagedPathOverflowsWhereIndexedPathDid(t *testing.T) {
	cfg := Config{NumBlocks: 128, BlockSize: 8, BucketSlots: 4, Amplification: 2, StashCapacity: 10, Seed: 31}
	got, _ := newTestORAM(t, cfg)
	ref, _ := newTestORAM(t, cfg)
	rng := rand.New(rand.NewSource(31))
	for step := 0; step < 5000; step++ {
		op := randomOp(rng, 128, 8)
		_, errGot := op.run(got)
		_, errRef := op.runRef(ref)
		if (errGot == nil) != (errRef == nil) {
			t.Fatalf("step %d: err %v, reference %v", step, errGot, errRef)
		}
		if errGot != nil {
			if !errors.Is(errGot, stash.ErrOverflow) || !errors.Is(errRef, stash.ErrOverflow) {
				t.Fatalf("step %d: err %v, reference %v, want stash.ErrOverflow from both", step, errGot, errRef)
			}
			if got.StashLen() != ref.StashLen() {
				t.Fatalf("step %d: after overflow stash holds %d, reference %d", step, got.StashLen(), ref.StashLen())
			}
			return
		}
	}
	t.Fatalf("a 10-block stash under %d-level, Z=4 paths never overflowed", got.Levels())
}

// TestTamperedBucketLeavesNothingStaged: on a sealed tree a bucket that
// fails authentication mid-path ends the access with tee.ErrAuthFailed;
// the blocks read from the levels above it join the stash's index, so
// the stash and every later access are exactly the reference's.
func TestTamperedBucketLeavesNothingStaged(t *testing.T) {
	cfg := Config{NumBlocks: 96, BlockSize: 16, BucketSlots: 4, Amplification: 2, Seed: 41, Engine: testEngine()}
	got, gotDev := newTestORAM(t, cfg)
	ref, refDev := newTestORAM(t, cfg)
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 600; step++ {
		op := randomOp(rng, 96, 16)
		if _, err := op.run(got); err != nil {
			t.Fatal(err)
		}
		if _, err := op.runRef(ref); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte of the level-2 bucket on block 5's path, on both devices.
	const victim = 5
	idx := got.tree.Index(got.pos.Get(victim), 2)
	if got.tree.Counter(idx) == 0 {
		t.Fatal("the bucket to tamper with was never written")
	}
	flip := func(dev *device.Sim) {
		var b [1]byte
		addr := got.tree.Addr(idx) + 3
		if err := dev.PeekAt(addr, b[:]); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if err := dev.PokeAt(addr, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	flip(gotDev)
	flip(refDev)
	_, _, errGot := got.Read(victim)
	errRef := refAccess(ref, victim, func(*stash.Block) {})
	if !errors.Is(errGot, tee.ErrAuthFailed) || !errors.Is(errRef, tee.ErrAuthFailed) {
		t.Fatalf("tampered read: err %v, reference %v, want tee.ErrAuthFailed from both", errGot, errRef)
	}
	if got.StashLen() != ref.StashLen() || got.StashLen() == 0 {
		t.Fatalf("after the failed access the stash holds %d, reference %d (want equal and > 0: levels 0-1 were read)",
			got.StashLen(), ref.StashLen())
	}
	// Undo the damage; both go on identically, re-reading blocks that are
	// now resident and on the tree.
	flip(gotDev)
	flip(refDev)
	for step := 0; step < 300; step++ {
		op := randomOp(rng, 96, 16)
		a, err := op.run(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := op.runRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("step %d after the failed access: read %x, reference %x", step, a, b)
		}
		sameState(t, step, got, ref, gotDev, refDev)
	}
}

// TestPlanMatchesPick: over random entry sets — up to 150 blocks with
// distinct ids, so pools grow large near the root — random eviction
// leaves, tree depths and bucket sizes, the stash's planner puts exactly
// the blocks, in exactly the slot order, that refBucket chooses for each
// level, and leaves exactly the rest unplaced. One trial in four fills a
// single bucket, as the Ring ORAM's early reshuffle does: the plan's
// deepest level is then random and only that bucket is compared and
// settled.
func TestPlanMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		z := 1 + rng.Intn(5)
		o, _ := newTestORAM(t, Config{NumBlocks: uint64(2 + rng.Intn(3000)), BlockSize: 1, BucketSlots: z, Amplification: 2})
		ref := stash.New(0)
		o.stash.Begin()
		for _, id := range rng.Perm(400)[:rng.Intn(151)] {
			leaf := uint32(rng.Intn(int(o.Leaves())))
			if err := o.stash.Take(uint64(id), leaf, []byte{byte(id)}); err != nil {
				t.Fatal(err)
			}
			_ = ref.Put(&stash.Block{ID: uint64(id), Leaf: leaf})
		}
		leaf := uint32(rng.Intn(int(o.Leaves())))
		deepest, shallowest := o.tree.Levels()-1, 0
		if trial%4 == 3 {
			deepest = rng.Intn(o.tree.Levels())
			shallowest = deepest
		}
		o.stash.Plan(leaf, o.tree.Levels(), deepest, z)
		entries := o.stash.Entries()
		for l := deepest; l >= shallowest; l-- {
			want := refBucket(ref, leaf, o.tree.Levels(), l, z)
			got := o.stash.Bucket(l)
			if len(got) != len(want) {
				t.Fatalf("trial %d level %d: planned %d blocks, Pick %d", trial, l, len(got), len(want))
			}
			for s, i := range got {
				if e := entries[i]; e.ID != want[s].ID || e.Leaf != want[s].Leaf {
					t.Fatalf("trial %d level %d slot %d: planned %d, Pick %d", trial, l, s, e.ID, want[s].ID)
				}
			}
		}
		if err := o.stash.Settle(shallowest, nil); err != nil {
			t.Fatal(err)
		}
		if left := o.stash.IDs(); !slices.Equal(left, ref.IDs()) {
			t.Fatalf("trial %d: left %v unplaced, Pick left %v", trial, left, ref.IDs())
		}
	}
}
