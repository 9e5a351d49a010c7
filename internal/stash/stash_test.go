package stash

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestPutGetRemove(t *testing.T) {
	s := New(10)
	if err := s.Put(&Block{ID: 1, Leaf: 3, Data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if b := s.Get(1); b == nil || b.Leaf != 3 || string(b.Data) != "a" {
		t.Errorf("Get(1) = %+v", s.Get(1))
	}
	if b := s.Get(2); b != nil {
		t.Errorf("Get(missing) = %+v, want nil", b)
	}
	if b := s.Remove(1); b == nil || b.ID != 1 {
		t.Errorf("Remove(1) = %+v", b)
	}
	if s.Len() != 0 {
		t.Errorf("Len after remove = %d", s.Len())
	}
	if s.Remove(1) != nil {
		t.Error("double remove returned a block")
	}
}

func TestOverflow(t *testing.T) {
	s := New(2)
	if err := s.Put(&Block{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Block{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Block{ID: 3}); !errors.Is(err, ErrOverflow) {
		t.Errorf("third insert err = %v, want ErrOverflow", err)
	}
	// Replacement of an existing ID is allowed at capacity.
	if err := s.Put(&Block{ID: 2, Leaf: 9}); err != nil {
		t.Errorf("replacement failed: %v", err)
	}
	if s.Get(2).Leaf != 9 {
		t.Error("replacement did not take effect")
	}
}

func TestUnboundedStash(t *testing.T) {
	s := New(0)
	for i := uint64(0); i < 1000; i++ {
		if err := s.Put(&Block{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1000 || s.Peak() != 1000 {
		t.Errorf("Len=%d Peak=%d", s.Len(), s.Peak())
	}
}

func TestNilBlockRejected(t *testing.T) {
	if err := New(1).Put(nil); err == nil {
		t.Error("nil block accepted")
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	s := New(10)
	for i := uint64(0); i < 5; i++ {
		_ = s.Put(&Block{ID: i})
	}
	for i := uint64(0); i < 4; i++ {
		s.Remove(i)
	}
	if s.Peak() != 5 || s.Len() != 1 {
		t.Errorf("Peak=%d Len=%d, want 5/1", s.Peak(), s.Len())
	}
}

// planResidents plans an eviction of the residents alone onto the path
// to leaf, filling the buckets from level deepest up, z blocks each.
func planResidents(s *Stash, leaf uint32, levels, deepest, z int) {
	s.Begin()
	s.JoinResidents()
	s.Plan(leaf, levels, deepest, z)
}

// bucketBlocks returns the entries Plan put in the bucket at level.
func bucketBlocks(s *Stash, level int) []Entry {
	var out []Entry
	for _, i := range s.Bucket(level) {
		out = append(out, s.Entries()[i])
	}
	return out
}

func TestPick(t *testing.T) {
	// Tree with 3 levels => 4 leaves (0..3). Level 0 is the root (prefix
	// length 0: everything matches), level 2 is the leaf itself. Filling
	// one bucket — deepest is that level — is the Ring ORAM's early
	// reshuffle.
	fill := func() *Stash {
		s := New(0)
		_ = s.Put(&Block{ID: 1, Leaf: 0})
		_ = s.Put(&Block{ID: 2, Leaf: 1})
		_ = s.Put(&Block{ID: 3, Leaf: 3})
		return s
	}
	s := fill()
	planResidents(s, 0, 3, 0, 10)
	root := bucketBlocks(s, 0)
	_ = s.Settle(0, nil)
	if len(root) != 3 || s.Len() != 0 {
		t.Errorf("root-level pick = %d (stash left %d), want 3 (0)", len(root), s.Len())
	}
	// Level 1 on the path to leaf 0: leaves 0 and 1 share that subtree.
	s = fill()
	planResidents(s, 0, 3, 1, 10)
	mid := bucketBlocks(s, 1)
	_ = s.Settle(1, nil)
	if len(mid) != 2 || s.Get(3) == nil {
		t.Errorf("level-1 pick = %d, want 2 (leaves 0,1) with block 3 left", len(mid))
	}
	// Leaf level: only exact leaf matches.
	s = fill()
	planResidents(s, 3, 3, 2, 10)
	if leaf := bucketBlocks(s, 2); len(leaf) != 1 || leaf[0].ID != 3 {
		t.Errorf("leaf-level pick = %+v", leaf)
	}
	// z truncates to the lowest IDs; the rest stay for the next level.
	s = fill()
	planResidents(s, 0, 3, 0, 2)
	got := bucketBlocks(s, 0)
	_ = s.Settle(0, nil)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 || s.Get(3) == nil {
		t.Errorf("z=2 picked %+v", got)
	}
}

// evictableFor is the eviction rule written out literally: the blocks the
// bucket at level may take, by a fresh ascending-ID scan of the whole
// stash, picked blocks removed by the caller. Kept as the reference model
// only.
func evictableFor(s *Stash, leaf uint32, level, treeLevels, max int) []*Block {
	var out []*Block
	shift := uint(treeLevels - 1 - level)
	want := leaf >> shift
	for _, id := range s.IDs() {
		b := s.blocks[id]
		if b.Leaf>>shift == want {
			out = append(out, b)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// TestPickMatchesReference: over random stashes, leaves, tree depths and
// bucket sizes, a whole leaf→root eviction planned by Plan places
// exactly the blocks, in exactly the slots, the per-level rescan placed
// — the tree bytes depend on nothing else — and Settle leaves exactly
// the rest resident.
func TestPickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		levels := 1 + rng.Intn(9)
		leaves := uint32(1) << (levels - 1)
		max := 1 + rng.Intn(5)
		got, ref := New(0), New(0)
		for n := rng.Intn(120); n > 0; n-- {
			id, leaf := uint64(rng.Intn(400)), uint32(rng.Intn(int(leaves)))
			_ = got.Put(&Block{ID: id, Leaf: leaf})
			_ = ref.Put(&Block{ID: id, Leaf: leaf})
		}
		leaf := uint32(rng.Intn(int(leaves)))
		planResidents(got, leaf, levels, levels-1, max)
		for l := levels - 1; l >= 0; l-- {
			want := evictableFor(ref, leaf, l, levels, max)
			for _, b := range want {
				ref.Remove(b.ID)
			}
			picked := bucketBlocks(got, l)
			if len(picked) != len(want) {
				t.Fatalf("trial %d level %d: picked %d blocks, reference %d", trial, l, len(picked), len(want))
			}
			for i := range want {
				if picked[i].ID != want[i].ID || picked[i].Leaf != want[i].Leaf {
					t.Fatalf("trial %d level %d slot %d: picked %+v, reference %+v", trial, l, i, picked[i], want[i])
				}
			}
		}
		_ = got.Settle(0, nil)
		if !slices.Equal(got.IDs(), ref.IDs()) {
			t.Fatalf("trial %d: stash left %v, reference %v", trial, got.IDs(), ref.IDs())
		}
	}
}

// TestNewBlockRecyclesPicked: a placed block comes back from NewBlock
// only after the eviction Settles, so the caller can still copy it into
// the bucket it is writing; a block taken out with Remove (its Data may
// have been returned to a caller) is never reused.
func TestNewBlockRecyclesPicked(t *testing.T) {
	s := New(0)
	a := s.NewBlock(1, 0, 8)
	copy(a.Data, "aaaaaaaa")
	_ = s.Put(a)
	r := s.NewBlock(2, 0, 8)
	_ = s.Put(r)
	removed := s.Remove(2)
	planResidents(s, 0, 1, 0, 4)
	picked := s.Bucket(0)
	if len(picked) != 1 || s.Entries()[picked[0]].blk != a {
		t.Fatalf("picked %+v", bucketBlocks(s, 0))
	}
	if n := s.NewBlock(3, 0, 8); n == a || n == removed {
		t.Fatal("block reused while the caller may still be packing it")
	}
	_ = s.Settle(0, nil)
	if n := s.NewBlock(4, 5, 4); n != a || n.ID != 4 || n.Leaf != 5 || len(n.Data) != 4 {
		t.Fatalf("released block not recycled: %+v", n)
	}
	if n := s.NewBlock(5, 0, 8); n == removed {
		t.Fatal("a Removed block was recycled")
	}
	s.Recycle(removed) // handed back explicitly: reused next
	if n := s.NewBlock(6, 1, 8); n != removed || n.ID != 6 || n.Leaf != 1 {
		t.Fatalf("recycled block not reused: %+v", n)
	}
}

func TestForEachAndIDs(t *testing.T) {
	s := New(0)
	for i := uint64(0); i < 4; i++ {
		_ = s.Put(&Block{ID: i})
	}
	seen := map[uint64]bool{}
	s.Begin()
	s.JoinResidents()
	for _, e := range s.Entries() {
		seen[e.ID] = true
	}
	if len(seen) != 4 {
		t.Errorf("JoinResidents added %d blocks", len(seen))
	}
	if len(s.IDs()) != 4 {
		t.Errorf("IDs() = %v", s.IDs())
	}
}

func TestScanBytes(t *testing.T) {
	s := New(100)
	if got := s.ScanBytes(64); got != 6400 {
		t.Errorf("ScanBytes = %d, want 6400 (covers capacity, not occupancy)", got)
	}
	u := New(0)
	_ = u.Put(&Block{ID: 1})
	if got := u.ScanBytes(64); got != 64 {
		t.Errorf("unbounded ScanBytes = %d, want 64", got)
	}
}

// TestReserveMatchesPut: random accesses — a path's worth of new blocks
// in, a leaf→root eviction, the leftovers kept — on one stash Taking
// each new block into its eviction (as the tree ORAMs do, the block held
// outside it under a reservation) and on its twin through Put and the
// reference rescan. Occupancy, high-water mark, overflow (at the same
// block), every Get, every bucket's blocks and the blocks left resident
// agree; holding the path outside the stash is a cheaper route to the
// same stash.
func TestReserveMatchesPut(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		levels := 2 + rng.Intn(6)
		leaves := uint32(1) << (levels - 1)
		max := 1 + rng.Intn(4)
		capacity := 0
		if trial%2 == 1 {
			capacity = 6 + rng.Intn(30)
		}
		got, ref := New(capacity), New(capacity)
		nextID := uint64(0)
		for access := 0; access < 30; access++ {
			var errGot, errRef error
			got.Begin()
			indexed := ref.IDs() // resident before this access
			for n := rng.Intn(levels*max + 1); n > 0 && errRef == nil; n-- {
				id, leaf := nextID, uint32(rng.Intn(int(leaves)))
				nextID++
				if rng.Intn(10) == 0 && len(indexed) > 0 {
					// A block the index already holds (a failed access left
					// it both resident and on the tree): replaced, not added.
					id, indexed = indexed[0], indexed[1:]
				}
				if b := got.Get(id); b != nil {
					b.Leaf = leaf
				} else {
					errGot = got.Take(id, leaf, nil)
				}
				errRef = ref.Put(&Block{ID: id, Leaf: leaf})
				if errors.Is(errGot, ErrOverflow) != errors.Is(errRef, ErrOverflow) {
					t.Fatalf("trial %d access %d: Take err %v, Put err %v", trial, access, errGot, errRef)
				}
				if got.Len()+len(got.Entries()) != ref.Len() || got.Peak() != ref.Peak() {
					t.Fatalf("trial %d access %d: Len+held/Peak %d/%d, Put twin %d/%d",
						trial, access, got.Len()+len(got.Entries()), got.Peak(), ref.Len(), ref.Peak())
				}
				var g *Entry
				if b := got.Get(id); b != nil {
					g = &Entry{ID: b.ID, Leaf: b.Leaf}
				}
				for i, e := range got.Entries() {
					if e.ID == id {
						g = &got.Entries()[i]
					}
				}
				if r := ref.Get(id); (g == nil) != (r == nil) || (g != nil && g.Leaf != r.Leaf) {
					t.Fatalf("trial %d access %d: Get(%d) = %+v, Put twin %+v", trial, access, id, g, r)
				}
			}
			if errRef != nil { // a failed access skips eviction, as the ORAMs do
				if err := got.Settle(0, errGot); !errors.Is(err, ErrOverflow) {
					t.Fatalf("trial %d access %d: settling a failed access: %v", trial, access, err)
				}
			} else {
				leaf := uint32(rng.Intn(int(leaves)))
				got.JoinResidents()
				got.Plan(leaf, levels, levels-1, max)
				for l := levels - 1; l >= 0; l-- {
					a, b := bucketBlocks(got, l), evictableFor(ref, leaf, l, levels, max)
					if len(a) != len(b) {
						t.Fatalf("trial %d access %d level %d: picked %d, Put twin %d", trial, access, l, len(a), len(b))
					}
					for i := range a {
						if a[i].ID != b[i].ID || a[i].Leaf != b[i].Leaf {
							t.Fatalf("trial %d access %d level %d slot %d: %+v vs %+v", trial, access, l, i, a[i], b[i])
						}
						ref.Remove(b[i].ID)
					}
				}
				if err := got.Settle(0, nil); err != nil {
					t.Fatalf("trial %d access %d: putting a reserved block: %v", trial, access, err)
				}
			}
			if got.Len() != ref.Len() || got.Peak() != ref.Peak() || !slices.Equal(got.IDs(), ref.IDs()) {
				t.Fatalf("trial %d access %d: left %v, Put twin %v", trial, access, got.IDs(), ref.IDs())
			}
		}
	}
}

// TestReservedBlocksAreNotResident pins the lifetime: a reservation
// counts toward the high-water mark and the overflow check but makes
// nothing resident (Len, Get, IDs); it does not accumulate; and the
// reserved blocks, once Put, never overflow.
func TestReservedBlocksAreNotResident(t *testing.T) {
	s := New(4)
	_ = s.Put(&Block{ID: 1, Leaf: 0})
	if err := s.reserve(2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Peak() != 3 || s.Get(2) != nil {
		t.Fatalf("after Reserve(2): Len=%d Peak=%d, want 1 and 3", s.Len(), s.Peak())
	}
	if ids := s.IDs(); !slices.Equal(ids, []uint64{1}) {
		t.Fatalf("index holds %v while blocks are reserved, want [1]", ids)
	}
	if err := s.reserve(2); err != nil || s.Peak() != 3 {
		t.Fatalf("a second Reserve(2): err %v, Peak %d; want nil and 3", err, s.Peak())
	}
	if err := s.reserve(3); err != nil || s.Peak() != 4 {
		t.Fatalf("Reserve to capacity: err %v, Peak %d; want nil and 4", err, s.Peak())
	}
	if err := s.reserve(4); !errors.Is(err, ErrOverflow) || s.Peak() != 4 {
		t.Fatalf("Reserve past capacity: err %v, Peak %d; want ErrOverflow and 4", err, s.Peak())
	}
	for id := uint64(2); id <= 4; id++ {
		if err := s.Put(&Block{ID: id}); err != nil {
			t.Fatalf("putting reserved block %d: %v", id, err)
		}
	}
	if s.Len() != 4 || s.Peak() != 4 {
		t.Fatalf("after the Puts: Len=%d Peak=%d, want 4/4", s.Len(), s.Peak())
	}
}
