package pathoram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/position"
	"repro/internal/stash"
	"repro/internal/tee"
)

// refAccess is one access the way it ran before path blocks were staged:
// every block on the path is Put into the stash's index and eviction
// deletes it again. Kept as the reference model only.
func refAccess(o *ORAM, id uint64, mutate func(blk *stash.Block)) error {
	o.stats.Accesses++
	newLeaf := o.randomLeaf()
	leaf := position.GetSet(o.pos, id, newLeaf)
	var dur time.Duration
	for l := 0; l < o.levels; l++ {
		idx := o.bucketIndex(leaf, l)
		o.stats.BucketReads++
		d, err := o.dev.ReadAt(o.bucketAddr(idx), o.stored)
		dur += d
		if err != nil {
			return err
		}
		ctr := o.counters.Get(uint64(idx))
		if ctr == 0 {
			continue
		}
		plain, err := o.openBucket(idx, ctr)
		if err != nil {
			return err
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
		o.initBlock(blk.Data, id)
		if err := o.stash.Put(blk); err != nil {
			return err
		}
	}
	blk.Leaf = newLeaf
	mutate(blk)
	d, err := o.evictPath(leaf) // nothing is staged: the eviction of old
	if err != nil {
		return err
	}
	o.stats.Time += dur + d
	return nil
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

// TestStagedPathMatchesIndexedPath: twin ORAMs over thousands of mixed
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
// a full path, both fail with stash.ErrOverflow at the same access.
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
// the blocks staged from the levels above it are handed to the index, so
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
	idx := got.bucketIndex(got.pos.Get(victim), 2)
	if got.counters.Get(uint64(idx)) == 0 {
		t.Fatal("the bucket to tamper with was never written")
	}
	flip := func(dev *device.Sim) {
		var b [1]byte
		addr := got.bucketAddr(idx) + 3
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
