package device

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// simParitySHA is the SHA-256 of Snapshot() after parityOps, recorded on
// commit 9a3b5ff, when the page store was a map[uint64][]byte. The paged
// store must serialize the same pages in the same order.
const simParitySHA = "7505178534c6ba867e0ad90f38b573527752ec18d238cc7e0fa3a02c9495a841"

// parityOps drives a seeded mix of accounted and unaccounted accesses:
// page-straddling writes, an address near 2^50, and a page written with
// zeros only (which the snapshot elides).
func parityOps(t *testing.T, s *Sim) {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	buf := make([]byte, 600)
	for i := 0; i < 300; i++ {
		addr := uint64(rng.Intn(6 * storePageSize))
		if i%40 == 7 {
			addr = 1<<50 + uint64(rng.Intn(2*storePageSize))
		}
		p := buf[:1+rng.Intn(len(buf))]
		var err error
		switch rng.Intn(5) {
		case 0:
			rng.Read(p)
			_, err = s.WriteAt(addr, p)
		case 1:
			rng.Read(p)
			err = s.PokeAt(addr, p)
		case 2:
			_, err = s.ReadAt(addr, p)
		case 3:
			err = s.PeekAt(addr, p)
		case 4:
			s.Charge(OpWrite, addr, len(p))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.WriteAt(1<<40, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestSimSnapshotParity(t *testing.T) {
	s := NewDRAM(1 << 62)
	parityOps(t, s)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != simParitySHA {
		t.Fatalf("snapshot sha256 = %s, want %s (recorded on 9a3b5ff)", got, simParitySHA)
	}

	// The bytes an older build wrote restore to the same contents.
	r := NewDRAM(1 << 62)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.Stats() != s.Stats() || r.ResidentBytes() > s.ResidentBytes() {
		t.Errorf("restored stats %+v resident %d, live %+v resident %d",
			r.Stats(), r.ResidentBytes(), s.Stats(), s.ResidentBytes())
	}
	a, b := make([]byte, 3*storePageSize), make([]byte, 3*storePageSize)
	for _, addr := range []uint64{0, 3 * storePageSize, 5*storePageSize + 9, 1<<50 - storePageSize, 1 << 40} {
		if err := s.PeekAt(addr, a); err != nil {
			t.Fatal(err)
		}
		if err := r.PeekAt(addr, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("restored device differs at %d", addr)
		}
	}
	again, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Error("snapshot of the restored device differs")
	}
}
