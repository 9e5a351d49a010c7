package obliv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSelect64(t *testing.T) {
	if got := Select64(1, 7, 9); got != 7 {
		t.Errorf("Select64(1,7,9) = %d, want 7", got)
	}
	if got := Select64(0, 7, 9); got != 9 {
		t.Errorf("Select64(0,7,9) = %d, want 9", got)
	}
}

func TestSelectInt(t *testing.T) {
	if got := SelectInt(1, -3, 5); got != -3 {
		t.Errorf("SelectInt(1,-3,5) = %d, want -3", got)
	}
	if got := SelectInt(0, -3, 5); got != 5 {
		t.Errorf("SelectInt(0,-3,5) = %d, want 5", got)
	}
}

func TestEqNeq64Property(t *testing.T) {
	f := func(a, b uint64) bool {
		wantEq := uint64(0)
		if a == b {
			wantEq = 1
		}
		return Eq64(a, b) == wantEq && Neq64(a, b) == 1-wantEq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Eq64(5, 5) != 1 || Eq64(0, 0) != 1 || Eq64(^uint64(0), ^uint64(0)) != 1 {
		t.Error("Eq64 failed on equal values")
	}
}

func TestLtGe64Property(t *testing.T) {
	f := func(a, b uint64) bool {
		wantLt := uint64(0)
		if a < b {
			wantLt = 1
		}
		return Lt64(a, b) == wantLt && Ge64(a, b) == 1-wantLt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Boundary cases that random testing is unlikely to hit.
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 0},
		{^uint64(0), 0, 0}, {0, ^uint64(0), 1},
		{^uint64(0), ^uint64(0), 0},
		{1 << 63, (1 << 63) - 1, 0}, {(1 << 63) - 1, 1 << 63, 1},
	}
	for _, c := range cases {
		if got := Lt64(c.a, c.b); got != c.want {
			t.Errorf("Lt64(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBoolCombinators(t *testing.T) {
	if And(1, 1) != 1 || And(1, 0) != 0 || And(0, 1) != 0 || And(0, 0) != 0 {
		t.Error("And truth table wrong")
	}
	if Or(1, 1) != 1 || Or(1, 0) != 1 || Or(0, 1) != 1 || Or(0, 0) != 0 {
		t.Error("Or truth table wrong")
	}
	if Not(0) != 1 || Not(1) != 0 {
		t.Error("Not truth table wrong")
	}
}

func TestCondAssignAndSwap(t *testing.T) {
	a, b := uint64(3), uint64(8)
	CondSwap64(0, &a, &b)
	if a != 3 || b != 8 {
		t.Errorf("CondSwap64(0) changed values: %d %d", a, b)
	}
	CondSwap64(1, &a, &b)
	if a != 8 || b != 3 {
		t.Errorf("CondSwap64(1) did not swap: %d %d", a, b)
	}
	var dst uint64 = 1
	CondAssign64(0, &dst, 99)
	if dst != 1 {
		t.Errorf("CondAssign64(0) wrote: %d", dst)
	}
	CondAssign64(1, &dst, 99)
	if dst != 99 {
		t.Errorf("CondAssign64(1) did not write: %d", dst)
	}
}

func TestCondCopyBytes(t *testing.T) {
	dst := []byte{1, 2, 3}
	src := []byte{9, 8, 7}
	CondCopy(0, dst, src)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Errorf("CondCopy(0) modified dst: %v", dst)
	}
	CondCopy(1, dst, src)
	if dst[0] != 9 || dst[1] != 8 || dst[2] != 7 {
		t.Errorf("CondCopy(1) did not copy: %v", dst)
	}
}

func TestCondCopyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CondCopy with mismatched lengths did not panic")
		}
	}()
	CondCopy(1, make([]byte, 2), make([]byte, 3))
}

func TestCondSwapBytes(t *testing.T) {
	a := []byte{1, 2}
	b := []byte{3, 4}
	CondSwapBytes(0, a, b)
	if a[0] != 1 || b[0] != 3 {
		t.Error("CondSwapBytes(0) swapped")
	}
	CondSwapBytes(1, a, b)
	if a[0] != 3 || a[1] != 4 || b[0] != 1 || b[1] != 2 {
		t.Error("CondSwapBytes(1) did not swap")
	}
}

func TestCondCopy64s(t *testing.T) {
	dst := []uint64{1, 2}
	src := []uint64{5, 6}
	CondCopy64s(0, dst, src)
	if dst[0] != 1 {
		t.Error("CondCopy64s(0) copied")
	}
	CondCopy64s(1, dst, src)
	if dst[0] != 5 || dst[1] != 6 {
		t.Error("CondCopy64s(1) did not copy")
	}
}

func TestScanGatherScatter(t *testing.T) {
	arr := []uint64{10, 20, 30, 40}
	for i, want := range arr {
		if got := ScanGather(arr, uint64(i)); got != want {
			t.Errorf("ScanGather(%d) = %d, want %d", i, got, want)
		}
	}
	// Out-of-range index yields zero (no hit).
	if got := ScanGather(arr, 100); got != 0 {
		t.Errorf("ScanGather(out of range) = %d, want 0", got)
	}
	ScanScatter(arr, 2, 99)
	if arr[2] != 99 || arr[0] != 10 || arr[3] != 40 {
		t.Errorf("ScanScatter wrote wrong slot: %v", arr)
	}
}

func TestScanGatherScatterBytes(t *testing.T) {
	const bs = 4
	arr := make([]byte, 3*bs)
	for i := range arr {
		arr[i] = byte(i)
	}
	dst := make([]byte, bs)
	ScanGatherBytes(arr, bs, 1, dst)
	for i := 0; i < bs; i++ {
		if dst[i] != byte(bs+i) {
			t.Fatalf("ScanGatherBytes got %v", dst)
		}
	}
	src := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	ScanScatterBytes(arr, bs, 2, src)
	if arr[2*bs] != 0xAA || arr[2*bs+3] != 0xDD || arr[0] != 0 {
		t.Fatalf("ScanScatterBytes wrote wrong region: %v", arr)
	}
}

func mapUnion(reqs []uint64) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, r := range reqs {
		if r == InvalidID || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

func TestUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(40)
		reqs := make([]uint64, k)
		for i := range reqs {
			reqs[i] = uint64(rng.Intn(10)) // small domain forces duplicates
		}
		got := Union(reqs)
		want := mapUnion(reqs)
		if got.Size != len(want) {
			t.Fatalf("trial %d: size %d, want %d (reqs %v)", trial, got.Size, len(want), reqs)
		}
		for i, w := range want {
			if got.IDs[i] != w {
				t.Fatalf("trial %d: IDs[%d]=%d want %d", trial, i, got.IDs[i], w)
			}
		}
		for i := got.Size; i < len(got.IDs); i++ {
			if got.IDs[i] != InvalidID {
				t.Fatalf("trial %d: tail slot %d not InvalidID", trial, i)
			}
		}
	}
}

func TestUnionIgnoresDummyRequests(t *testing.T) {
	reqs := []uint64{5, InvalidID, 5, InvalidID, 7}
	got := Union(reqs)
	if got.Size != 2 || got.IDs[0] != 5 || got.IDs[1] != 7 {
		t.Errorf("Union with dummies = %+v", got)
	}
}

func TestUnionEmpty(t *testing.T) {
	got := Union(nil)
	if got.Size != 0 || len(got.IDs) != 0 {
		t.Errorf("Union(nil) = %+v", got)
	}
}

func TestUnionChunked(t *testing.T) {
	reqs := []uint64{1, 2, 1, 3, 3, 4, 5}
	chunks := UnionChunked(reqs, 3)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	// Chunk 0: {1,2}; chunk 1: {3,4} (dedupes 3 within chunk);
	// chunk 2: {5}. Duplicate 1 across chunks 0/0 stays merged only
	// within its chunk; 3 appears once per containing chunk.
	if chunks[0].Size != 2 || chunks[1].Size != 2 || chunks[2].Size != 1 {
		t.Errorf("chunk sizes = %d %d %d", chunks[0].Size, chunks[1].Size, chunks[2].Size)
	}
}

func TestUnionChunkedBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UnionChunked(chunkSize=0) did not panic")
		}
	}()
	UnionChunked([]uint64{1}, 0)
}

func TestUnionScanCost(t *testing.T) {
	if got := UnionScanCost(10); got != 200 {
		t.Errorf("UnionScanCost(10) = %d, want 200", got)
	}
	// Chunked cost: 7 reqs, chunk 3 -> 2*(9+9+1) = 38.
	if got := UnionChunkedScanCost(7, 3); got != 38 {
		t.Errorf("UnionChunkedScanCost(7,3) = %d, want 38", got)
	}
	// Chunking must never cost more than the monolithic scan.
	for k := 1; k < 100; k += 7 {
		if UnionChunkedScanCost(k, 16) > UnionScanCost(k) {
			t.Errorf("chunked cost exceeds monolithic at k=%d", k)
		}
	}
}

func TestBitonicSortKV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(50)
		kvs := make([]KV, n)
		for i := range kvs {
			kvs[i] = KV{Key: uint64(rng.Intn(20)), Val: uint64(i)}
		}
		BitonicSortKV(kvs)
		for i := 1; i < n; i++ {
			if kvs[i-1].Key > kvs[i].Key {
				t.Fatalf("trial %d: not sorted at %d: %v", trial, i, kvs)
			}
		}
	}
}

func TestBitonicSortPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 37
	kvs := make([]KV, n)
	count := map[uint64]int{}
	for i := range kvs {
		k := uint64(rng.Intn(8))
		kvs[i] = KV{Key: k, Val: k * 10}
		count[k]++
	}
	BitonicSortKV(kvs)
	for _, kv := range kvs {
		count[kv.Key]--
		if kv.Val != kv.Key*10 {
			t.Fatalf("value separated from key: %+v", kv)
		}
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("key %d count off by %d", k, c)
		}
	}
}

func TestCompactIDs(t *testing.T) {
	ids := []uint64{InvalidID, 4, InvalidID, 9, 2, InvalidID}
	n := CompactIDs(ids)
	if n != 3 {
		t.Fatalf("CompactIDs count = %d, want 3", n)
	}
	want := []uint64{4, 9, 2}
	for i, w := range want {
		if ids[i] != w {
			t.Errorf("ids[%d] = %d, want %d (order must be preserved)", i, ids[i], w)
		}
	}
	for i := n; i < len(ids); i++ {
		if ids[i] != InvalidID {
			t.Errorf("tail slot %d = %d, want InvalidID", i, ids[i])
		}
	}
}

func TestCompactIDsAllDummy(t *testing.T) {
	ids := []uint64{InvalidID, InvalidID}
	if n := CompactIDs(ids); n != 0 {
		t.Errorf("CompactIDs(all dummy) = %d, want 0", n)
	}
}

func BenchmarkUnion1K(b *testing.B) {
	reqs := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(4))
	for i := range reqs {
		reqs[i] = uint64(rng.Intn(256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Union(reqs)
	}
}
