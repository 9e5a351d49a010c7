package bufferoram

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/persist"
)

// newPersistBuf builds a buffer plus its backing DRAM device; the block
// bytes live on the device, so resume tests must snapshot it alongside
// the buffer (as the controller does).
func newPersistBuf(t *testing.T, seed int64) (*Buffer, *device.Sim) {
	t.Helper()
	dev := device.NewDRAM(1 << 30)
	b, err := New(Config{Capacity: 64, Dim: 4, LearningRate: 1, Seed: seed}, dev)
	if err != nil {
		t.Fatal(err)
	}
	return b, dev
}

// loadSome places count distinct entries, exercising the slot allocator
// and the inner path ORAM.
func loadSome(t *testing.T, b *Buffer, rng *rand.Rand, base uint64, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		entry := make([]float32, 4)
		for j := range entry {
			entry[j] = rng.Float32()
		}
		if _, err := b.Load(base+uint64(i), entry); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBufferSnapshotResumeEquivalence(t *testing.T) {
	a, devA := newPersistBuf(t, 3)
	loadSome(t, a, rand.New(rand.NewSource(21)), 0, 20)
	for i := uint64(0); i < 10; i++ {
		if _, err := a.Aggregate(i, []float32{1, 1, 1, 1}, 2); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	devSnap, err := devA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Continuation A: unload half, load a fresh batch (recycles slots).
	continuation := func(b *Buffer) [][]float32 {
		var out [][]float32
		for i := uint64(0); i < 10; i++ {
			entry, _, err := b.Unload(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, entry)
		}
		loadSome(t, b, rand.New(rand.NewSource(22)), 100, 15)
		for i := uint64(100); i < 115; i++ {
			entry, _, err := b.Serve(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, entry)
		}
		return out
	}
	wantOut := continuation(a)

	// Recovery reconstructs with the same Config before restoring (the
	// position map's PRF seed is construction-time identity), then
	// restores the device image before the buffer metadata.
	b, devB := newPersistBuf(t, 3)
	if err := devB.Restore(devSnap); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotOut := continuation(b)

	if len(wantOut) != len(gotOut) {
		t.Fatalf("continuation lengths differ: %d vs %d", len(wantOut), len(gotOut))
	}
	for i := range wantOut {
		if !approxEqual(wantOut[i], gotOut[i], 0) {
			t.Fatalf("entry %d diverged: %v vs %v", i, wantOut[i], gotOut[i])
		}
	}
	if a.Resident() != b.Resident() {
		t.Fatalf("resident %d != %d", a.Resident(), b.Resident())
	}
}

func TestBufferRestoreGuards(t *testing.T) {
	a := newBuf(t, Config{Seed: 4})
	loadSome(t, a, rand.New(rand.NewSource(5)), 0, 5)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := newBuf(t, Config{Seed: 4, Capacity: 128}).Restore(snap); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	if err := newBuf(t, Config{Seed: 4, Dim: 8}).Restore(snap); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if err := newBuf(t, Config{Seed: 4}).Restore(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestBufferRestoreRefusesAliasedSlot: every slot is either one row's or
// free, once. A checkpoint whose free list names an occupied slot (the
// next Load would overwrite that row) or whose two rows share a slot is
// refused, and the buffer is left as it was.
func TestBufferRestoreRefusesAliasedSlot(t *testing.T) {
	rows := []struct {
		id uint64
		v  float32
	}{{10, 1}, {11, 2}}
	for _, tc := range []struct {
		name   string
		tamper func(b *Buffer)
	}{
		{"free slot occupied", func(b *Buffer) { b.free[len(b.free)-1] = b.slotOf[10] }},
		{"two rows on one slot", func(b *Buffer) { b.slotOf[11] = b.slotOf[10] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, devA := newPersistBuf(t, 1)
			for _, r := range rows {
				if _, err := a.Load(r.id, []float32{r.v, r.v, r.v, r.v}); err != nil {
					t.Fatal(err)
				}
			}
			tc.tamper(a)
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			devSnap, err := devA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			b, devB := newPersistBuf(t, 1)
			loadSome(t, b, rand.New(rand.NewSource(3)), 100, 5)
			before, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := devB.Restore(devSnap); err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err == nil {
				if _, err := b.Load(20, []float32{5, 5, 5, 5}); err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					got, _, err := b.Serve(r.id)
					if err != nil {
						t.Fatal(err)
					}
					if got[0] != r.v {
						t.Errorf("row %d serves %v, want %v", r.id, got, r.v)
					}
				}
				t.Fatal("Restore accepted slots that are not a partition")
			} else if !strings.Contains(err.Error(), "slot") {
				t.Fatalf("Restore = %v, want a slot error", err)
			}
			if after, err := b.Snapshot(); err != nil || !bytes.Equal(before, after) {
				t.Fatalf("a refused restore changed the buffer (err %v)", err)
			}
		})
	}
}

// TestBufferRefusedRestoreChangesNothing: a snapshot of a buffer with
// another seed passes the buffer's own checks and is refused by the
// inner Path ORAM's position map. Nothing is applied before that
// refusal: the RNG, the inner ORAM's stash and every other section keep
// what they held.
func TestBufferRefusedRestoreChangesNothing(t *testing.T) {
	a, _ := newPersistBuf(t, 1)
	loadSome(t, a, rand.New(rand.NewSource(5)), 0, 5)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b, _ := newPersistBuf(t, 2)
	loadSome(t, b, rand.New(rand.NewSource(6)), 100, 7)
	before, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	err = b.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "position map") {
		t.Fatalf("Restore of another seed's snapshot = %v, want a position-map refusal", err)
	}
	if after, err := b.Snapshot(); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("a refused restore changed the buffer (err %v)", err)
	}
}

// TestBufferRestoreRefusesHugeCounts: a snapshot whose slot count, or
// free-slot count, claims 2^23 entries in a few bytes is refused before
// either count sizes anything.
func TestBufferRestoreRefusesHugeCounts(t *testing.T) {
	a, _ := newPersistBuf(t, 1)
	loadSome(t, a, rand.New(rand.NewSource(3)), 100, 2)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := persist.NewDecoder(snap) // version, geometry, round, rng
	d.U8()
	d.U32()
	d.U32()
	d.U32()
	d.U64()
	d.Bytes()
	slotsAt := len(snap) - d.Remaining()
	freeAt := slotsAt + 8 + 12*2
	if binary.LittleEndian.Uint64(snap[slotsAt:]) != 2 || binary.LittleEndian.Uint64(snap[freeAt:]) != 62 {
		t.Fatal("the snapshot does not hold 2 slots and 62 free ones where expected")
	}
	for _, at := range []int{slotsAt, freeAt} {
		bad := bytes.Clone(snap)
		binary.LittleEndian.PutUint64(bad[at:], 1<<23)
		b, _ := newPersistBuf(t, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := b.Restore(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a count of 2^23 at offset %d was restored", at)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("refusing a count of 2^23 at offset %d allocated %d bytes", at, grew)
		}
	}
}
