package raworam

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/device"
)

func newPersistORAM(t *testing.T) (*ORAM, *device.Sim, *device.Sim) {
	t.Helper()
	cfg := Config{NumBlocks: 256, BlockSize: 32, Seed: 42}
	probe := device.NewSSD(1 << 30)
	dram := device.NewDRAM(1 << 30)
	trial, err := New(cfg, probe, dram)
	if err != nil {
		t.Fatal(err)
	}
	ssd := device.NewSSD(trial.RequiredBytes())
	dram = device.NewDRAM(1 << 30)
	o, err := New(cfg, ssd, dram)
	if err != nil {
		t.Fatal(err)
	}
	return o, ssd, dram
}

// drive performs a deterministic mixed workload (AO reads, write-backs,
// dummies) whose effects depend on the ORAM's internal RNG and eviction
// phase — exactly the state a snapshot must capture.
func drive(t *testing.T, o *ORAM, rng *rand.Rand, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		id := uint64(rng.Intn(256))
		switch rng.Intn(4) {
		case 0:
			if _, _, err := o.AOAccess(id); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := o.AODummy(); err != nil {
				t.Fatal(err)
			}
		case 2:
			data := make([]byte, 32)
			rng.Read(data)
			if _, err := o.WriteBack(id, data); err != nil {
				t.Fatal(err)
			}
		case 3:
			if _, err := o.WriteBackDummy(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSnapshotResumeEquivalence is the core durability property: run a
// workload, snapshot mid-stream, keep running (A); restore the snapshot
// into a fresh instance and run the identical continuation (B). A and B
// must agree on every block, the stash, the eviction phase, and the
// device image.
func TestSnapshotResumeEquivalence(t *testing.T) {
	a, ssdA, _ := newPersistORAM(t)
	drive(t, a, rand.New(rand.NewSource(7)), 200)

	oramSnap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ssdSnap, err := ssdA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Continuation A.
	drive(t, a, rand.New(rand.NewSource(8)), 150)

	// Restore into B and run the identical continuation.
	b, ssdB, _ := newPersistORAM(t)
	if err := ssdB.Restore(ssdSnap); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(oramSnap); err != nil {
		t.Fatal(err)
	}
	drive(t, b, rand.New(rand.NewSource(8)), 150)

	if a.RootCounter() != b.RootCounter() {
		t.Fatalf("root counter %d != %d", a.RootCounter(), b.RootCounter())
	}
	if a.StashLen() != b.StashLen() {
		t.Fatalf("stash %d != %d", a.StashLen(), b.StashLen())
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v != %+v", a.Stats(), b.Stats())
	}
	for id := uint64(0); id < 256; id++ {
		pa, err := a.Peek(id)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Peek(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("block %d diverged after resume", id)
		}
	}
}

func TestSnapshotGeometryGuard(t *testing.T) {
	a, _, _ := newPersistORAM(t)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{NumBlocks: 512, BlockSize: 32, Seed: 42} // different N
	probe := device.NewSSD(1 << 30)
	dram := device.NewDRAM(1 << 30)
	other, err := New(cfg, probe, dram)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	b, _, _ := newPersistORAM(t)
	if err := b.Restore(snap[:len(snap)/3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestSnapshotRefusesZeroCounter: SnapshotTo never writes a zero bucket
// counter, so a checkpoint holding one is crafted — it would open the
// bucket under a nonce no seal used. Restore refuses it by bucket and
// leaves the ORAM as it was.
func TestSnapshotRefusesZeroCounter(t *testing.T) {
	a, _, _ := newPersistORAM(t)
	drive(t, a, rand.New(rand.NewSource(7)), 1000)
	snap, err := a.Snapshot()
	if err != nil || a.tree.Written() == 0 {
		t.Fatalf("snapshot of %d written buckets: %v", a.tree.Written(), err)
	}
	// The counters section ends the snapshot: the last pair is the
	// highest written bucket's (u32 index, u64 counter).
	n := len(snap)
	idx := binary.LittleEndian.Uint32(snap[n-12:])
	clear(snap[n-8:])

	b, _, _ := newPersistORAM(t)
	drive(t, b, rand.New(rand.NewSource(8)), 200)
	before, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	err = b.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bucket %d has write counter 0", idx)) {
		t.Fatalf("zero counter of bucket %d: Restore = %v", idx, err)
	}
	if after, err := b.Snapshot(); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("a refused restore changed the ORAM (err %v)", err)
	}
}

// TestSnapshotRefusesVTreeCounterMismatch: the VTree names exactly the
// buckets that have a write counter — a lookup opens every written
// bucket on its path and reads its bitmap. A checkpoint whose VTree
// leaves out a written bucket (the root, on every path) or names one
// never written is refused, and the ORAM is left as it was.
func TestSnapshotRefusesVTreeCounterMismatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(o *ORAM)
	}{
		{"missing", func(o *ORAM) { delete(o.vtree, 0) }},
		{"extra", addUnwrittenBitmap},
		{"moved", func(o *ORAM) { delete(o.vtree, 0); addUnwrittenBitmap(o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, ssdA, _ := newPersistORAM(t)
			drive(t, a, rand.New(rand.NewSource(7)), 300)
			if a.tree.Counter(0) == 0 {
				t.Fatal("the workload never wrote the root")
			}
			tc.tamper(a)
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ssdSnap, err := ssdA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			b, ssdB, _ := newPersistORAM(t)
			drive(t, b, rand.New(rand.NewSource(8)), 200)
			before, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := ssdB.Restore(ssdSnap); err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err == nil {
				for id := uint64(0); id < 256; id++ {
					if _, _, err := b.AOAccess(id); err != nil {
						t.Fatal(err)
					}
				}
				t.Fatal("Restore accepted a VTree that disagrees with the write counters")
			} else if !strings.Contains(err.Error(), "VTree") {
				t.Fatalf("Restore = %v, want a VTree error", err)
			}
			if after, err := b.Snapshot(); err != nil || !bytes.Equal(before, after) {
				t.Fatalf("a refused restore changed the ORAM (err %v)", err)
			}
		})
	}
}

// addUnwrittenBitmap gives the first never-written bucket a VTree bitmap.
func addUnwrittenBitmap(o *ORAM) {
	for idx := uint32(0); ; idx++ {
		if o.tree.Counter(idx) == 0 {
			o.vtree[idx] = make([]byte, (o.cfg.BucketSlots+7)/8)
			return
		}
	}
}

// TestRefusedRestoreChangesNothing: a snapshot of an ORAM with another
// seed passes the geometry guard and is refused by the position map,
// the last section Restore applies. The RNG and stash sections before
// it are not applied either.
func TestRefusedRestoreChangesNothing(t *testing.T) {
	a, _, _ := newPersistORAM(t)
	drive(t, a, rand.New(rand.NewSource(7)), 300)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{NumBlocks: 256, BlockSize: 32, Seed: 43}
	b, err := New(cfg, device.NewSSD(1<<30), device.NewDRAM(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, b, rand.New(rand.NewSource(8)), 200)
	before, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	err = b.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "position map") {
		t.Fatalf("Restore of another seed's snapshot = %v, want a position-map refusal", err)
	}
	if after, err := b.Snapshot(); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("a refused restore changed the ORAM (err %v)", err)
	}
}

// TestRestoreRefusesHugeVTreeCount: a snapshot whose VTree count claims
// 2^23 bitmaps in a few bytes is refused before the count sizes
// anything.
func TestRestoreRefusesHugeVTreeCount(t *testing.T) {
	o, _, _ := newPersistORAM(t)
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh ORAM's snapshot ends with two empty sections: the VTree,
	// then the write counters.
	at := len(snap) - 16
	if binary.LittleEndian.Uint64(snap[at:]) != 0 || binary.LittleEndian.Uint64(snap[at+8:]) != 0 {
		t.Fatal("a fresh ORAM's snapshot does not end with two empty sections")
	}
	binary.LittleEndian.PutUint64(snap[at:], 1<<23)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = o.Restore(snap)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a VTree count of 2^23 in a %d-byte snapshot was restored", len(snap))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing a VTree count of 2^23 allocated %d bytes", grew)
	}
}
