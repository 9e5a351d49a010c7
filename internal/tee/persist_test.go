package tee

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

func TestScratchpadSnapshotRoundTrip(t *testing.T) {
	a := NewScratchpad(4096)
	if err := a.Reserve("key", 32); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve("root-counter", 8); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := NewScratchpad(4096)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.Free() != a.Free() {
		t.Fatalf("free %d, want %d", b.Free(), a.Free())
	}
	// Restored reservations behave like the originals: re-reserving an
	// existing region fails, a fresh one within the free space works.
	if err := b.Reserve("key", 1); err == nil {
		t.Fatal("duplicate reservation accepted after restore")
	}
	if err := b.Reserve("extra", b.Free()); err != nil {
		t.Fatalf("free-space reservation rejected after restore: %v", err)
	}
}

func TestScratchpadRestoreGuards(t *testing.T) {
	a := NewScratchpad(4096)
	a.Reserve("key", 32)
	snap, _ := a.Snapshot()
	if err := NewScratchpad(2048).Restore(snap); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := NewScratchpad(4096).Restore(snap[:2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestScratchpadRestoreRefusesHugeRegionCount: a scratchpad snapshot
// whose region count claims 2^23 regions in a few bytes is refused
// before the count sizes anything.
func TestScratchpadRestoreRefusesHugeRegionCount(t *testing.T) {
	a := NewScratchpad(4096)
	if err := a.Reserve("key", 32); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const at = 1 + 8 // version, size
	if n := binary.LittleEndian.Uint64(snap[at:]); n != 1 {
		t.Fatalf("region count %d, want 1", n)
	}
	binary.LittleEndian.PutUint64(snap[at:], 1<<23)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = NewScratchpad(4096).Restore(snap)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a region count of 2^23 in a %d-byte snapshot was restored", len(snap))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing a region count of 2^23 allocated %d bytes", grew)
	}
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	var key [32]byte
	key[0] = 9
	a := NewEngine(key)
	sealed := a.Seal([]byte("secret block bytes"), 3, 7)
	if _, err := a.Open(sealed, 3, 7); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := NewEngine(key)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v, want %+v", b.Stats(), a.Stats())
	}
	// Keys are construction-time config, not snapshot state: the restored
	// engine still opens data sealed by the original.
	if _, err := b.Open(sealed, 3, 7); err != nil {
		t.Fatalf("restored engine cannot open: %v", err)
	}
}

// TestEngineRestoreRefusesHMACSeal: an engine section written by the
// AES-CTR + HMAC-SHA256 engine (version 1) is refused by name.
func TestEngineRestoreRefusesHMACSeal(t *testing.T) {
	snap, err := testEngine().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap[0] != engineSnapshotVersion {
		t.Fatalf("engine snapshot version %d, want %d", snap[0], engineSnapshotVersion)
	}
	snap[0] = retiredHMACSealVersion
	e := testEngine()
	if err := e.Restore(snap); !errors.Is(err, ErrRetiredSeal) {
		t.Fatalf("Restore of a version-1 engine section = %v, want %v", err, ErrRetiredSeal)
	}
	snap[0] = 3
	if err := e.Restore(snap); err == nil || errors.Is(err, ErrRetiredSeal) {
		t.Fatalf("Restore of a version-3 engine section = %v, want an unsupported-version error", err)
	}
}
