package position

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// sparseParitySHA is the SHA-256 of Snapshot() after the seeded remaps
// below, recorded on commit 9a3b5ff, when the overlay was a
// map[uint64]uint32. The paged overlay must emit the same entries in the
// same ascending-id order.
const sparseParitySHA = "94413fd5b3ed63c582da0812445bb4fe010a86dd64607d961ea393c5da9846e0"

func TestSparseSnapshotParity(t *testing.T) {
	const blocks, leaves = 1 << 40, 1 << 12
	rng := rand.New(rand.NewSource(15))
	s := NewSparse(blocks, leaves, 9)
	touched := []uint64{0, blocks - 1}
	s.Set(0, 0) // leaf 0 is an assignment, not "absent"
	s.Set(blocks-1, leaves-1)
	for i := 0; i < 3000; i++ {
		id := uint64(rng.Intn(1 << 16))
		if i%9 == 0 {
			id = uint64(rng.Int63n(blocks))
		}
		touched = append(touched, id)
		if i%2 == 0 {
			s.GetSet(id, uint32(rng.Intn(leaves)))
		} else {
			s.Set(id, uint32(rng.Intn(leaves)))
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != sparseParitySHA {
		t.Fatalf("snapshot sha256 = %s, want %s (recorded on 9a3b5ff)", got, sparseParitySHA)
	}

	// The bytes an older build wrote restore to the same assignment.
	r := NewSparse(blocks, leaves, 9)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.DirtyCount() != s.DirtyCount() {
		t.Errorf("restored DirtyCount %d, live %d", r.DirtyCount(), s.DirtyCount())
	}
	for _, id := range touched {
		if r.Get(id) != s.Get(id) {
			t.Fatalf("restored map disagrees at id %d", id)
		}
	}
	for i := 0; i < 1000; i++ {
		if id := uint64(rng.Int63n(blocks)); r.Get(id) != s.Get(id) {
			t.Fatalf("restored map disagrees at clean id %d", id)
		}
	}
	again, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Error("snapshot of the restored map differs")
	}
}
