package device

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/persist"
)

func TestSimSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64, writes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 1 << 16
		a := NewSSD(capacity)
		for i := 0; i < int(writes%32)+1; i++ {
			buf := make([]byte, 512)
			rng.Read(buf)
			addr := uint64(rng.Intn(capacity - len(buf)))
			if _, err := a.WriteAt(addr, buf); err != nil {
				return false
			}
		}
		snap, err := a.Snapshot()
		if err != nil {
			return false
		}
		b := NewSSD(capacity)
		if err := b.Restore(snap); err != nil {
			return false
		}
		if a.Stats() != b.Stats() {
			return false
		}
		// Full-device content comparison.
		pa := make([]byte, capacity)
		pb := make([]byte, capacity)
		if err := a.PeekAt(0, pa); err != nil {
			return false
		}
		if err := b.PeekAt(0, pb); err != nil {
			return false
		}
		return bytes.Equal(pa, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSimRestoreGuards(t *testing.T) {
	a := NewSSD(1 << 16)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSSD(1 << 17).Restore(snap); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	if err := NewDRAM(1 << 16).Restore(snap); err == nil {
		t.Fatal("profile mismatch accepted")
	}
	if err := NewSSD(1 << 16).Restore(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestDecodeSnapshotRefusesHugePageCount: a device snapshot whose page
// count claims 2^23 pages in a few bytes is refused before the count
// sizes anything.
func TestDecodeSnapshotRefusesHugePageCount(t *testing.T) {
	s := NewSSD(1 << 20)
	if _, err := s.WriteAt(4096, []byte("page")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := persist.NewDecoder(snap) // version, profile, capacity, stats
	d.U8()
	_ = d.String()
	for range 6 {
		d.U64()
	}
	at := len(snap) - d.Remaining()
	if n := d.U64(); d.Err() != nil || n != 1 {
		t.Fatalf("page count %d (%v), want 1", n, d.Err())
	}
	binary.LittleEndian.PutUint64(snap[at:], 1<<23)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, _, err = DecodeSnapshot(snap)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a page count of 2^23 in a %d-byte snapshot decoded", len(snap))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing a page count of 2^23 allocated %d bytes", grew)
	}
}
