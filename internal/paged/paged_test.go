package paged

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func TestAbsentIsZero(t *testing.T) {
	var tab Table[uint32]
	if tab.Get(0) != 0 || tab.Get(1<<60) != 0 || tab.Len() != 0 {
		t.Fatal("empty table is not all-absent")
	}
	tab.Set(7, 0) // storing zero into nothing allocates nothing
	if tab.leaves != nil {
		t.Error("Set(i, zero) on an empty table allocated")
	}
	tab.Set(7, 3)
	tab.Set(leafLen+7, 4) // same slot, next leaf
	if tab.Get(7) != 3 || tab.Get(leafLen+7) != 4 || tab.Get(8) != 0 || tab.Len() != 2 {
		t.Errorf("Get(7)=%d Get(leafLen+7)=%d Get(8)=%d Len=%d", tab.Get(7), tab.Get(leafLen+7), tab.Get(8), tab.Len())
	}
	tab.Set(7, 9) // overwrite: still one entry
	tab.Set(leafLen+7, 0)
	if tab.Get(7) != 9 || tab.Get(leafLen+7) != 0 || tab.Len() != 1 {
		t.Errorf("after overwrite and removal: Get(7)=%d Get(leafLen+7)=%d Len=%d", tab.Get(7), tab.Get(leafLen+7), tab.Len())
	}
}

// TestMatchesMap: a random mix of writes, removals and reads — clustered
// indices, so the last-leaf memo both hits and misses — behaves as the
// map it replaced, and Range is that map's sorted iteration.
func TestMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[uint64]
	ref := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		idx := uint64(rng.Intn(8))<<40 | uint64(rng.Intn(3*leafLen))
		switch rng.Intn(3) {
		case 0:
			v := uint64(rng.Intn(5)) // 0 removes
			tab.Set(idx, v)
			if v == 0 {
				delete(ref, idx)
			} else {
				ref[idx] = v
			}
		default:
			if got := tab.Get(idx); got != ref[idx] {
				t.Fatalf("step %d: Get(%d) = %d, map has %d", i, idx, got, ref[idx])
			}
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, map has %d", tab.Len(), len(ref))
	}
	want := make([]uint64, 0, len(ref))
	for idx := range ref {
		want = append(want, idx)
	}
	slices.Sort(want)
	var got []uint64
	tab.Range(func(idx, v uint64) {
		if v != ref[idx] {
			t.Fatalf("Range gave %d at %d, map has %d", v, idx, ref[idx])
		}
		got = append(got, idx)
	})
	if !slices.Equal(got, want) {
		t.Fatal("Range is not the ascending iteration of the present entries")
	}
}

// TestMemoryFollowsTouchedLeaves: nothing is sized from the index space —
// a write at 2^50 costs one leaf, not a directory reaching up to it.
func TestMemoryFollowsTouchedLeaves(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var tab Table[uint64]
	tab.Set(1<<50, 1)
	tab.Set(3, 2)
	runtime.ReadMemStats(&after)
	if len(tab.leaves) != 2 {
		t.Errorf("%d leaves for two far-apart writes, want 2", len(tab.leaves))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("two writes allocated %d bytes", grew)
	}
	if tab.Get(1<<50) != 1 || tab.Get(3) != 2 || tab.Get(1<<50+1) != 0 {
		t.Error("far-apart entries read back wrong")
	}
}
