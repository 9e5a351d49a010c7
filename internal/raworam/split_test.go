package raworam

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/tree"
)

// splitTestConfig is batchTestConfig over a tree large enough for
// batches that split four ways.
func splitTestConfig() Config {
	cfg := batchTestConfig()
	cfg.NumBlocks = 1 << 14
	return cfg
}

// newSplitSide is a sealed ORAM over a plain simulated SSD that reads
// batches with up to workers goroutines.
func newSplitSide(t *testing.T, cfg Config, workers int) *batchSide {
	t.Helper()
	s := &batchSide{ssd: device.NewSSD(1 << 32), engine: testEngine()}
	cfg.Engine = s.engine
	var err error
	if s.o, err = New(cfg, s.ssd, device.NewDRAM(1<<32)); err != nil {
		t.Fatal(err)
	}
	s.o.SetReadWorkers(workers)
	return s
}

// TestSplitReadMatchesOneReader: a batch split across readers is the
// one-reader batch in everything but where the work ran. Two identically
// seeded ORAMs, one reading with one goroutine and one with up to four,
// run rounds of batches on both sides of every cut-over (one reader per
// minReadsPerWorker ids) plus their write-backs; payloads, the ORAM
// snapshot (VTree, counters, positions, stash), the SSD image and the
// engine counters agree after every read phase and every write-back
// phase.
func TestSplitReadMatchesOneReader(t *testing.T) {
	cfg := splitTestConfig()
	one, split := newSplitSide(t, cfg, 1), newSplitSide(t, cfg, 4)
	rng := rand.New(rand.NewSource(6))
	var prev []uint64
	for round, n := range []int{5000, 1023, 1024, 1535, 1536, 2047, 2048, 700} {
		ids := roundIDs(rng, cfg.NumBlocks, n, prev)
		a, b := one.readBatch(t, ids), split.readBatch(t, ids)
		if !bytes.Equal(a, b) {
			t.Fatalf("round %d (%d ids): payloads differ", round, n)
		}
		if !bytes.Equal(one.state(t), split.state(t)) {
			t.Fatalf("round %d (%d ids): state differs after the read phase", round, n)
		}
		if x, y := one.engine.Stats(), split.engine.Stats(); x != y {
			t.Fatalf("round %d (%d ids): engine counters: one reader %+v, split %+v", round, n, x, y)
		}
		one.writeBack(t, ids, round)
		split.writeBack(t, ids, round)
		if !bytes.Equal(one.state(t), split.state(t)) {
			t.Fatalf("round %d (%d ids): state differs after the write-back phase", round, n)
		}
		prev = ids
	}
	if split.o.RootCounter() == 0 {
		t.Fatal("workload too narrow: no eviction ran")
	}
}

// TestSplitReadTamperedSeam: with one byte flipped in a bucket that the
// lookups on both sides of the batch's middle range boundary read, a
// two-reader split fails like one reader — the same error, one
// AuthFailure, the same engine counters — and leaves the same ORAM
// state: the ranges after the failing one, which fail on the same bucket
// or run past it, count and apply nothing.
func TestSplitReadTamperedSeam(t *testing.T) {
	cfg := splitTestConfig()
	one, split := newSplitSide(t, cfg, 1), newSplitSide(t, cfg, 2)
	rng := rand.New(rand.NewSource(9))
	var prev []uint64
	for round := 0; round < 8; round++ {
		ids := roundIDs(rng, cfg.NumBlocks, 3000, prev)
		one.readBatch(t, ids)
		split.readBatch(t, ids)
		one.writeBack(t, ids, round)
		split.writeBack(t, ids, round)
		prev = ids
	}
	o := one.o

	// The batch: 2·minReadsPerWorker blocks in the tree (none in the
	// stash); AOAccessBatch cuts it into equal leaf ranges, so the leaf
	// order's midpoint is a range boundary.
	var reads []batchRead
	for id := uint64(0); id < cfg.NumBlocks && len(reads) < 2*minReadsPerWorker; id += 3 {
		if o.stash.Get(id) == nil {
			reads = append(reads, batchRead{id: id, leaf: o.pos.Get(id)})
		}
	}
	slices.SortFunc(reads, func(a, b batchRead) int {
		if c := cmp.Compare(a.leaf, b.leaf); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	last, first := reads[len(reads)/2-1], reads[len(reads)/2]
	// The seam bucket: the deepest written bucket both paths share that
	// both lookups reach — neither block sits above it.
	reach := func(r batchRead) int {
		at, _, err := o.readers[0].find(o, r.leaf, r.id, make([]byte, cfg.BlockSize), nil)
		if err != nil {
			t.Fatal(err)
		}
		if at == tree.NoBucket {
			return o.tree.Levels() - 1
		}
		return int(levelOf(at))
	}
	o.readers[0].path.Reset()
	victim := tree.NoBucket
	for l := min(reach(last), reach(first)); l >= 0 && victim == tree.NoBucket; l-- {
		idx := o.tree.Index(last.leaf, l)
		if o.tree.Counter(idx) != 0 && idx == o.tree.Index(first.leaf, l) {
			victim = idx
		}
	}
	if victim == tree.NoBucket {
		t.Fatal("no written bucket shared by the seam")
	}
	ids := make([]uint64, len(reads))
	for i, r := range reads {
		ids[i] = r.id
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	type outcome struct {
		err   error
		stats tee.EngineStats
		state []byte
	}
	run := func(s *batchSide) outcome {
		img := make([]byte, s.o.tree.BucketSize())
		if err := s.ssd.PeekAt(s.o.tree.Addr(victim), img); err != nil {
			t.Fatal(err)
		}
		img[41] ^= 0x08
		if err := s.ssd.PokeAt(s.o.tree.Addr(victim), img); err != nil {
			t.Fatal(err)
		}
		before := s.engine.Stats()
		_, err := s.o.AOAccessBatch(ids, make([]byte, len(ids)*cfg.BlockSize))
		after := s.engine.Stats()
		return outcome{err: err, state: s.state(t), stats: tee.EngineStats{
			GroupsOpened: after.GroupsOpened - before.GroupsOpened,
			BytesOpened:  after.BytesOpened - before.BytesOpened,
			AuthFailures: after.AuthFailures - before.AuthFailures,
		}}
	}
	// The probe above opened buckets on one side only.
	split.engine.ResetStats()
	one.engine.ResetStats()
	a, b := run(one), run(split)
	if !errors.Is(a.err, tee.ErrAuthFailed) || !errors.Is(b.err, tee.ErrAuthFailed) {
		t.Fatalf("errors: one reader %v, split %v; want ErrAuthFailed on both", a.err, b.err)
	}
	if a.err.Error() != b.err.Error() {
		t.Errorf("errors differ: one reader %q, split %q", a.err, b.err)
	}
	if a.stats.AuthFailures != 1 || a.stats != b.stats {
		t.Errorf("engine work of the failed batch: one reader %+v, split %+v; want equal, one AuthFailure", a.stats, b.stats)
	}
	if !bytes.Equal(a.state, b.state) {
		t.Error("ORAM state after the failed batch differs between one reader and the split")
	}
}

// levelOf is the tree level of bucket idx.
func levelOf(idx uint32) uint32 {
	l := uint32(0)
	for idx+1 > 1<<(l+1)-1 {
		l++
	}
	return l
}

// TestSplitReadSteadyStateAllocs: a split read over a file-backed SSD —
// sealed 4 KB buckets, read without the file's lock straight into each
// reader's path buffer — allocates nothing in steady state, and neither
// do the write-backs that return its blocks.
func TestSplitReadSteadyStateAllocs(t *testing.T) {
	const k = 2 * minReadsPerWorker
	cfg := Config{NumBlocks: 1 << 14, BlockSize: 64, Seed: 5, Engine: testEngine()}
	probe, err := New(cfg, device.NewSSD(1<<40), device.NewDRAM(1<<32))
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := storage.OpenFile("ssd", filepath.Join(t.TempDir(), "ssd.dev"), device.PM9A1SSD,
		probe.RequiredBytes(), storage.Spec{Kind: storage.KindFile})
	if err != nil {
		t.Fatal(err)
	}
	defer ssd.Close()
	o, err := New(cfg, ssd, device.NewDRAM(1<<32))
	if err != nil {
		t.Fatal(err)
	}
	o.SetReadWorkers(2)
	ids := make([]uint64, k)
	dst := make([]byte, k*cfg.BlockSize)
	var next uint64
	step := func() {
		for i := range ids {
			ids[i] = next % cfg.NumBlocks
			next += 7
		}
		if _, err := o.AOAccessBatch(ids, dst); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if _, err := o.WriteBack(id, dst[i*cfg.BlockSize:(i+1)*cfg.BlockSize]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up until every eviction path — so every bucket page — has
	// been written once.
	for o.RootCounter() < 2*uint64(o.Leaves()) {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Errorf("a %d-id split read + write-backs over a file allocates %.1f times, want 0", k, n)
	}
}
