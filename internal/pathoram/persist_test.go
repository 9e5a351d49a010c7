package pathoram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/tree"
)

func newPersistORAM(t *testing.T) (*ORAM, *device.Sim) {
	t.Helper()
	cfg := Config{NumBlocks: 128, BlockSize: 32, Seed: 5}
	probe := device.NewSSD(1 << 40)
	trial, err := New(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.NewSSD(trial.RequiredBytes())
	o, err := New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	return o, dev
}

func drive(t *testing.T, o *ORAM, rng *rand.Rand, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		id := uint64(rng.Intn(128))
		if rng.Intn(2) == 0 {
			if _, _, err := o.Read(id); err != nil {
				t.Fatal(err)
			}
		} else {
			data := make([]byte, 32)
			rng.Read(data)
			if _, err := o.Write(id, data); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSnapshotResumeEquivalence(t *testing.T) {
	a, devA := newPersistORAM(t)
	drive(t, a, rand.New(rand.NewSource(11)), 120)

	oramSnap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	devSnap, err := devA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	drive(t, a, rand.New(rand.NewSource(12)), 80)

	b, devB := newPersistORAM(t)
	if err := devB.Restore(devSnap); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(oramSnap); err != nil {
		t.Fatal(err)
	}
	drive(t, b, rand.New(rand.NewSource(12)), 80)

	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v != %+v", a.Stats(), b.Stats())
	}
	if a.StashLen() != b.StashLen() {
		t.Fatalf("stash %d != %d", a.StashLen(), b.StashLen())
	}
	for id := uint64(0); id < 128; id++ {
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

func TestSnapshotExternalPositionMapRefused(t *testing.T) {
	// The recursive construction's outer ORAM snapshots everything except
	// the external position map; a snapshot from an own-map ORAM must not
	// restore into it (ownership flag guard).
	own, _ := newPersistORAM(t)
	snap, err := own.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{NumBlocks: 128, BlockSize: 32, Seed: 5}
	leaves, _ := tree.Geometry(cfg.NumBlocks, 4, 8)
	cfg.PositionMap = newTestPosMap(leaves)
	probe := device.NewSSD(1 << 40)
	trial, err := New(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := New(cfg, device.NewSSD(trial.RequiredBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.Restore(snap); err == nil {
		t.Fatal("own-map snapshot restored into external-map ORAM")
	}
}

// newTestPosMap builds a standalone map for the external-map test.
func newTestPosMap(leaves uint32) *externalMap {
	return &externalMap{leaves: leaves, pos: map[uint64]uint32{}}
}

type externalMap struct {
	leaves uint32
	pos    map[uint64]uint32
}

func (m *externalMap) Get(id uint64) uint32 { return m.pos[id] % m.leaves }
func (m *externalMap) Set(id uint64, leaf uint32) {
	m.pos[id] = leaf
}
func (m *externalMap) GetSet(id uint64, leaf uint32) uint32 {
	old := m.Get(id)
	m.Set(id, leaf)
	return old
}
func (m *externalMap) NumLeaves() uint32 { return m.leaves }
func (m *externalMap) SizeBytes() uint64 { return 0 }

// TestSnapshotRefusesZeroCounter: SnapshotTo never writes a zero bucket
// counter, so a checkpoint holding one is crafted — Restore refuses it by
// bucket and leaves the ORAM as it was.
func TestSnapshotRefusesZeroCounter(t *testing.T) {
	a, _ := newPersistORAM(t)
	drive(t, a, rand.New(rand.NewSource(11)), 40)
	snap, err := a.Snapshot()
	if err != nil || a.tree.Written() == 0 {
		t.Fatalf("snapshot of %d written buckets: %v", a.tree.Written(), err)
	}
	// The counters section ends the snapshot: the last pair is the
	// highest written bucket's (u32 index, u64 counter).
	n := len(snap)
	idx := binary.LittleEndian.Uint32(snap[n-12:])
	clear(snap[n-8:])

	b, _ := newPersistORAM(t)
	drive(t, b, rand.New(rand.NewSource(12)), 40)
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

// TestRefusedRestoreChangesNothing: a snapshot of an ORAM with another
// seed is refused by the position map, the last section Restore
// applies, and the RNG and stash sections before it are not applied.
func TestRefusedRestoreChangesNothing(t *testing.T) {
	a, _ := newPersistORAM(t)
	drive(t, a, rand.New(rand.NewSource(11)), 40)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b, err := New(Config{NumBlocks: 128, BlockSize: 32, Seed: 6}, device.NewSSD(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, b, rand.New(rand.NewSource(12)), 30)
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
