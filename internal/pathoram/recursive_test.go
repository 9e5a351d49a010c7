package pathoram

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/position"
	"repro/internal/tree"
)

func newRecursiveMap(t *testing.T, numBlocks uint64, numLeaves uint32) (*RecursiveMap, *device.Sim) {
	t.Helper()
	dev := device.NewDRAM(1 << 30)
	rm, err := NewRecursiveMap(RecursiveMapConfig{
		NumBlocks:       numBlocks,
		NumLeaves:       numLeaves,
		EntriesPerBlock: 8,
		ThresholdBytes:  256, // force several recursion levels
		Seed:            1,
	}, dev)
	if err != nil {
		t.Fatal(err)
	}
	return rm, dev
}

func TestRecursiveMapDepth(t *testing.T) {
	rm, _ := newRecursiveMap(t, 4096, 1024)
	// 4096 entries → 512 blocks (2 KiB > 256 B) → 64 blocks (256 B ≤
	// threshold, residual map held directly). Two ORAM levels.
	if rm.Levels() != 2 {
		t.Errorf("Levels = %d, want 2", rm.Levels())
	}
	if rm.RequiredBytes() == 0 {
		t.Error("zero footprint")
	}
}

func TestRecursiveMapSetGet(t *testing.T) {
	rm, _ := newRecursiveMap(t, 1024, 256)
	rm.Set(5, 99)
	if got := rm.Get(5); got != 99 {
		t.Errorf("Get(5) = %d, want 99", got)
	}
	rm.Set(5, 7)
	if got := rm.Get(5); got != 7 {
		t.Errorf("Get(5) = %d after reset, want 7", got)
	}
}

func TestRecursiveMapUnassignedDeterministic(t *testing.T) {
	rm, _ := newRecursiveMap(t, 1024, 256)
	a := rm.Get(77)
	b := rm.Get(77)
	if a != b {
		t.Errorf("unassigned leaf unstable: %d vs %d", a, b)
	}
	if a >= 256 {
		t.Errorf("leaf %d out of range", a)
	}
}

func TestRecursiveMapMatchesSparseSemantics(t *testing.T) {
	// Random interleaving of Get/Set must behave exactly like a plain
	// map with PRF defaults.
	rm, _ := newRecursiveMap(t, 512, 128)
	ref := map[uint64]uint32{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		id := uint64(rng.Intn(512))
		if rng.Intn(2) == 0 {
			leaf := uint32(rng.Intn(128))
			rm.Set(id, leaf)
			ref[id] = leaf
		} else {
			got := rm.Get(id)
			if want, ok := ref[id]; ok && got != want {
				t.Fatalf("iter %d id %d: got %d want %d", i, id, got, want)
			}
		}
	}
}

func TestRecursiveGetSetSingleAccess(t *testing.T) {
	rm, _ := newRecursiveMap(t, 1024, 256)
	before := rm.levels[0].Stats().Accesses
	rm.GetSet(3, 42)
	after := rm.levels[0].Stats().Accesses
	if after-before != 1 {
		t.Errorf("GetSet cost %d level-0 accesses, want 1", after-before)
	}
}

func TestRecursiveLookupTouchesEveryLevel(t *testing.T) {
	rm, _ := newRecursiveMap(t, 4096, 1024)
	var before []uint64
	for _, o := range rm.levels {
		before = append(before, o.Stats().Accesses)
	}
	rm.GetSet(1234, 5)
	for i, o := range rm.levels {
		if o.Stats().Accesses == before[i] {
			t.Errorf("level %d not touched by a lookup", i)
		}
	}
}

func TestRecursiveMapAccessTimeAccumulates(t *testing.T) {
	rm, _ := newRecursiveMap(t, 1024, 256)
	rm.GetSet(1, 2)
	if rm.AccessTime() <= 0 {
		t.Error("no modelled time accumulated")
	}
}

func TestDataORAMWithRecursiveMap(t *testing.T) {
	// End-to-end: a data ORAM whose position map is fully recursive must
	// still satisfy read-your-writes.
	dev := device.NewDRAM(1 << 30)
	const numBlocks = 512
	leaves, _ := tree.Geometry(numBlocks, 4, 8)
	rm, err := NewRecursiveMap(RecursiveMapConfig{
		NumBlocks:       numBlocks,
		NumLeaves:       leaves,
		EntriesPerBlock: 8,
		ThresholdBytes:  256,
		Seed:            3,
	}, dev)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		NumBlocks:   numBlocks,
		BlockSize:   16,
		Seed:        4,
		PositionMap: rm,
		BaseAddr:    rm.RequiredBytes(), // chain occupies the device head
	}, dev)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ref := map[uint64][]byte{}
	for i := 0; i < 1500; i++ {
		id := uint64(rng.Intn(numBlocks))
		if rng.Intn(2) == 0 {
			data := make([]byte, 16)
			rng.Read(data)
			if _, err := o.Write(id, data); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			ref[id] = data
		} else {
			got, _, err := o.Read(id)
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			want, ok := ref[id]
			if !ok {
				want = make([]byte, 16)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d id %d: mismatch", i, id)
			}
		}
	}
}

func TestRecursiveMapValidation(t *testing.T) {
	dev := device.NewDRAM(1 << 20)
	if _, err := NewRecursiveMap(RecursiveMapConfig{}, dev); err == nil {
		t.Error("empty config accepted")
	}
	// A map small enough to fit the threshold should be rejected (caller
	// should use a flat map).
	if _, err := NewRecursiveMap(RecursiveMapConfig{
		NumBlocks: 8, NumLeaves: 4, ThresholdBytes: 1 << 20,
	}, dev); err == nil {
		t.Error("trivially small recursive map accepted")
	}
}

func TestRecursiveMapImplementsInterfaces(t *testing.T) {
	var _ position.Map = (*RecursiveMap)(nil)
	var _ position.GetSetter = (*RecursiveMap)(nil)
}

func TestRecursiveMapOutOfRangePanics(t *testing.T) {
	rm, _ := newRecursiveMap(t, 1024, 16)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range id did not panic")
		}
	}()
	rm.Get(1024)
}
