package raworam

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/tee"
)

// peekCounter counts the unaccounted bucket reads an ORAM issues, per
// device address.
type peekCounter struct {
	device.Device
	peeks map[uint64]int
	total int
}

func (p *peekCounter) PeekAt(addr uint64, b []byte) error {
	p.peeks[addr]++
	p.total++
	return p.Device.PeekAt(addr, b)
}

func (p *peekCounter) reset() {
	clear(p.peeks)
	p.total = 0
}

// batchSide is one sealed ORAM over its own devices and engine, its SSD
// behind a peekCounter.
type batchSide struct {
	o      *ORAM
	ssd    *device.Sim
	peeks  *peekCounter
	engine *tee.Engine
}

func newBatchSide(t *testing.T, cfg Config) *batchSide {
	t.Helper()
	s := &batchSide{ssd: device.NewSSD(1 << 32), engine: testEngine()}
	s.peeks = &peekCounter{Device: s.ssd, peeks: make(map[uint64]int)}
	cfg.Engine = s.engine
	var err error
	if s.o, err = New(cfg, s.peeks, device.NewDRAM(1<<32)); err != nil {
		t.Fatal(err)
	}
	return s
}

// readSingly is one AOAccess per id, the payloads back to back.
func (s *batchSide) readSingly(t *testing.T, ids []uint64) []byte {
	t.Helper()
	var out []byte
	for _, id := range ids {
		data, _, err := s.o.AOAccess(id)
		if err != nil {
			t.Fatalf("AOAccess(%d): %v", id, err)
		}
		out = append(out, data...)
	}
	return out
}

func (s *batchSide) readBatch(t *testing.T, ids []uint64) []byte {
	t.Helper()
	out := make([]byte, len(ids)*s.o.cfg.BlockSize)
	if _, err := s.o.AOAccessBatch(ids, out); err != nil {
		t.Fatalf("AOAccessBatch: %v", err)
	}
	return out
}

// writeBack returns every id with a payload derived from (id, round).
func (s *batchSide) writeBack(t *testing.T, ids []uint64, round int) {
	t.Helper()
	data := make([]byte, s.o.cfg.BlockSize)
	for _, id := range ids {
		for i := range data {
			data[i] = byte(id) ^ byte(round*31+i)
		}
		if _, err := s.o.WriteBack(id, data); err != nil {
			t.Fatalf("WriteBack(%d): %v", id, err)
		}
	}
}

// state is everything a checkpoint would hold of this side.
func (s *batchSide) state(t *testing.T) []byte {
	t.Helper()
	oram, err := s.o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := s.ssd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return append(oram, ssd...)
}

func batchTestConfig() Config {
	const bs = 32
	return Config{
		NumBlocks: 4096, BlockSize: bs, BucketSlots: 8, EvictPeriod: 11, Seed: 21, HasScratchpad: true,
		InitFn: func(id uint64) []byte {
			b := make([]byte, bs)
			binary.LittleEndian.PutUint64(b, id*2654435761+1)
			return b
		},
	}
}

// roundIDs draws n distinct ids, always re-reading the tail of the
// previous round's write-backs (still in the stash: the last EvictPeriod
// of them have seen no eviction yet).
func roundIDs(rng *rand.Rand, numBlocks uint64, n int, prev []uint64) []uint64 {
	ids := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	if len(prev) > 8 {
		prev = prev[len(prev)-8:]
	}
	for _, id := range prev {
		seen[id] = true
		ids = append(ids, id)
	}
	for len(ids) < n {
		if id := uint64(rng.Int63n(int64(numBlocks))); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// TestBatchMatchesSingleAccesses: a merged batch is k AOAccess calls in
// everything but host-side work. Two identically seeded ORAMs run ten
// rounds of 500 reads + write-backs, one id at a time on one side and one
// batch per round on the other; payloads agree per id and the ORAM
// snapshot plus the SSD image and counters agree byte for byte after
// every read phase and every write-back phase. The rounds cover blocks
// found in the tree, blocks still in the stash and never-written blocks,
// with evictions in between.
func TestBatchMatchesSingleAccesses(t *testing.T) {
	cfg := batchTestConfig()
	single, merged := newBatchSide(t, cfg), newBatchSide(t, cfg)
	rng := rand.New(rand.NewSource(4))
	var prev []uint64
	var stashHits, treeHits, unwritten int
	written := make(map[uint64]bool)
	for round := 0; round < 10; round++ {
		ids := roundIDs(rng, cfg.NumBlocks, 500, prev)
		for _, id := range ids {
			switch {
			case merged.o.stash.Get(id) != nil:
				stashHits++
			case written[id]:
				treeHits++
			default:
				unwritten++
			}
		}
		a, b := single.readSingly(t, ids), merged.readBatch(t, ids)
		for i, id := range ids {
			if x, y := a[i*cfg.BlockSize:(i+1)*cfg.BlockSize], b[i*cfg.BlockSize:(i+1)*cfg.BlockSize]; !bytes.Equal(x, y) {
				t.Fatalf("round %d id %d: single %x, batch %x", round, id, x, y)
			}
		}
		if !bytes.Equal(single.state(t), merged.state(t)) {
			t.Fatalf("round %d: state differs after the read phase", round)
		}
		single.writeBack(t, ids, round)
		merged.writeBack(t, ids, round)
		if !bytes.Equal(single.state(t), merged.state(t)) {
			t.Fatalf("round %d: state differs after the write-back phase", round)
		}
		for _, id := range ids {
			written[id] = true
		}
		prev = ids
	}
	if stashHits == 0 || treeHits == 0 || unwritten == 0 || merged.o.RootCounter() == 0 {
		t.Fatalf("workload too narrow: %d stash hits, %d tree hits, %d unwritten, %d evictions",
			stashHits, treeHits, unwritten, merged.o.RootCounter())
	}
	if s, m := single.engine.Stats(), merged.engine.Stats(); s.GroupsSealed != m.GroupsSealed || s.GroupsOpened <= m.GroupsOpened {
		t.Errorf("engine work: single %+v, batch %+v — same seals and fewer opens expected", s, m)
	}
}

// TestBatchReadsEachBucketOnce: within one batch no bucket address is
// fetched twice, and a 256-id batch fetches fewer than half the buckets
// the same 256 single accesses do.
func TestBatchReadsEachBucketOnce(t *testing.T) {
	cfg := batchTestConfig()
	single, merged := newBatchSide(t, cfg), newBatchSide(t, cfg)
	rng := rand.New(rand.NewSource(9))
	var prev []uint64
	for round := 0; round < 12; round++ { // populate the tree
		ids := roundIDs(rng, cfg.NumBlocks, 500, prev)
		single.readSingly(t, ids)
		merged.readBatch(t, ids)
		single.writeBack(t, ids, round)
		merged.writeBack(t, ids, round)
		prev = ids
	}
	for _, k := range []int{256, 1024} {
		ids := roundIDs(rng, cfg.NumBlocks, k, nil)
		single.peeks.reset()
		merged.peeks.reset()
		single.readSingly(t, ids)
		merged.readBatch(t, ids)
		for addr, n := range merged.peeks.peeks {
			if n != 1 {
				t.Errorf("k=%d: bucket at %d fetched %d times in one batch", k, addr, n)
			}
		}
		if merged.peeks.total == 0 || 2*merged.peeks.total >= single.peeks.total {
			t.Errorf("k=%d: batch fetched %d buckets, single accesses %d — want fewer than half",
				k, merged.peeks.total, single.peeks.total)
		}
		if len(merged.peeks.peeks) != len(single.peeks.peeks) {
			t.Errorf("k=%d: batch touched %d distinct buckets, single accesses %d — the union must be the same",
				k, len(merged.peeks.peeks), len(single.peeks.peeks))
		}
		single.writeBack(t, ids, k)
		merged.writeBack(t, ids, k)
	}
}

// TestBatchRejectsBadRequests: a repeated id, an out-of-range id or a
// wrong-sized buffer fails the whole batch before anything changes.
func TestBatchRejectsBadRequests(t *testing.T) {
	cfg := batchTestConfig()
	s := newBatchSide(t, cfg)
	ids := roundIDs(rand.New(rand.NewSource(2)), cfg.NumBlocks, 300, nil)
	s.readBatch(t, ids)
	s.writeBack(t, ids, 0)
	before := s.state(t)
	engineBefore := s.engine.Stats()
	s.peeks.reset()

	dst := bytes.Repeat([]byte{0xA5}, 4*cfg.BlockSize)
	for name, tc := range map[string]struct {
		ids []uint64
		dst []byte
	}{
		"repeated id":     {[]uint64{ids[0], ids[1], ids[299], ids[1]}, dst},
		"out of range":    {[]uint64{ids[0], ids[1], cfg.NumBlocks, ids[2]}, dst},
		"short buffer":    {[]uint64{ids[0], ids[1], ids[2], ids[3]}, dst[:3*cfg.BlockSize]},
		"oversize buffer": {[]uint64{ids[0], ids[1], ids[2]}, dst},
	} {
		if _, err := s.o.AOAccessBatch(tc.ids, tc.dst); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if !bytes.Equal(s.state(t), before) {
			t.Fatalf("%s: rejected batch changed ORAM or device state", name)
		}
		if s.peeks.total != 0 || s.engine.Stats() != engineBefore {
			t.Errorf("%s: rejected batch read the tree", name)
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xA5}, len(dst))) {
			t.Errorf("%s: rejected batch wrote to dst", name)
		}
	}
}

// TestBatchIntegrityIsPerBucket: authentication is per bucket, not per
// access. With one byte of a written upper-tree bucket flipped on the SSD,
// a batch whose paths all cross it fails with tee.ErrAuthFailed on the one
// open of that bucket — AuthFailures rises by exactly one — and nothing
// stored in that bucket reaches the caller's buffer.
func TestBatchIntegrityIsPerBucket(t *testing.T) {
	for _, level := range []int{0, 1} {
		cfg := batchTestConfig()
		s := newBatchSide(t, cfg)
		o := s.o
		rng := rand.New(rand.NewSource(13))
		var prev []uint64
		for round := 0; round < 12; round++ {
			ids := roundIDs(rng, cfg.NumBlocks, 500, prev)
			s.readBatch(t, ids)
			s.writeBack(t, ids, round)
			prev = ids
		}
		victim := uint32(1)<<level - 1 // leftmost bucket of the level
		ctr := o.tree.Counter(victim)
		if ctr == 0 {
			t.Fatalf("level %d: bucket %d never written", level, victim)
		}

		// The batch: ids whose path crosses the victim and that are not in
		// the stash, so every one of them is looked up in the tree; inVictim
		// are those stored in the victim.
		o.readers[0].path.Reset()
		plain, _, err := o.readers[0].path.Read(o.ssd, level, victim, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		inVictim := make(map[uint64]bool)
		for slot := 0; slot < cfg.BucketSlots; slot++ {
			if getBit(o.validBits(victim), slot) {
				inVictim[binary.LittleEndian.Uint64(plain[slot*(slotMetaSize+cfg.BlockSize):])] = true
			}
		}
		var ids []uint64
		for id := uint64(0); id < cfg.NumBlocks && len(ids) < 400; id++ {
			if o.tree.Index(o.pos.Get(id), level) == victim && o.stash.Get(id) == nil {
				ids = append(ids, id)
			}
		}
		if len(inVictim) == 0 || len(ids) < 256 {
			t.Fatalf("level %d: %d blocks in the victim bucket, %d ids through it", level, len(inVictim), len(ids))
		}
		want := make(map[uint64][]byte)
		for _, id := range ids {
			if want[id], err = o.Peek(id); err != nil {
				t.Fatal(err)
			}
		}

		img := make([]byte, o.tree.BucketSize())
		if err := s.ssd.PeekAt(o.tree.Addr(victim), img); err != nil {
			t.Fatal(err)
		}
		img[37] ^= 0x10
		if err := s.ssd.PokeAt(o.tree.Addr(victim), img); err != nil {
			t.Fatal(err)
		}

		failuresBefore := s.engine.Stats().AuthFailures
		s.peeks.reset()
		dst := bytes.Repeat([]byte{0xA5}, len(ids)*cfg.BlockSize)
		if _, err := o.AOAccessBatch(ids, dst); !errors.Is(err, tee.ErrAuthFailed) {
			t.Fatalf("level %d: batch over a tampered bucket: err = %v, want ErrAuthFailed", level, err)
		}
		if got := s.engine.Stats().AuthFailures - failuresBefore; got != 1 {
			t.Errorf("level %d: AuthFailures rose by %d, want 1", level, got)
		}
		if n := s.peeks.peeks[o.tree.Addr(victim)]; n != 1 {
			t.Errorf("level %d: tampered bucket fetched %d times, want 1", level, n)
		}
		untouched := bytes.Repeat([]byte{0xA5}, cfg.BlockSize)
		for i, id := range ids {
			got := dst[i*cfg.BlockSize : (i+1)*cfg.BlockSize]
			switch {
			case bytes.Equal(got, untouched):
			case inVictim[id]:
				t.Errorf("level %d: block %d lives in the tampered bucket yet dst holds %x", level, id, got)
			case !bytes.Equal(got, want[id]):
				t.Errorf("level %d: block %d: dst holds %x, neither untouched nor its payload %x", level, id, got, want[id])
			}
		}
	}
}
