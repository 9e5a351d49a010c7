package raworam

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/tee"
)

func testEngine() *tee.Engine {
	var key [32]byte
	key[0] = 0x42
	return tee.NewEngine(key)
}

func newTestORAM(t *testing.T, cfg Config) (*ORAM, *device.Sim, *device.Sim) {
	t.Helper()
	ssd := device.NewSSD(1 << 32)
	dram := device.NewDRAM(1 << 32)
	o, err := New(cfg, ssd, dram)
	if err != nil {
		t.Fatal(err)
	}
	return o, ssd, dram
}

func TestDerivedGeometry(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 10000, BlockSize: 64, Seed: 1})
	// 4 KB page, 64 B blocks + 12 B meta + 16 B tag: Z ≈ (4096-16)/76 = 53.
	if z := o.BucketSlots(); z < 40 || z > 64 {
		t.Errorf("derived Z = %d", z)
	}
	if o.BucketStoredSize()%4096 != 0 {
		t.Errorf("bucket size %d not page aligned", o.BucketStoredSize())
	}
	// A ≈ 1.4×Z.
	if a := o.EvictPeriod(); a < o.BucketSlots() || a > 2*o.BucketSlots() {
		t.Errorf("derived A = %d for Z = %d", a, o.BucketSlots())
	}
}

func TestPaperEvictPeriodRegime(t *testing.T) {
	// The paper reports A up to 92 with 4 KB buckets and small blocks.
	// With 64-byte blocks our derived A should be in the same regime.
	o, _, _ := newTestORAM(t, Config{NumBlocks: 1 << 20, BlockSize: 64, Seed: 1, Engine: testEngine()})
	if a := o.EvictPeriod(); a < 50 || a > 100 {
		t.Errorf("A = %d, want the paper's tens-of-accesses regime", a)
	}
}

func TestAOThenWriteBackRoundTrip(t *testing.T) {
	for _, withCrypto := range []bool{false, true} {
		cfg := Config{NumBlocks: 256, BlockSize: 32, BucketSlots: 8, EvictPeriod: 6, Seed: 2}
		if withCrypto {
			cfg.Engine = testEngine()
		}
		o, _, _ := newTestORAM(t, cfg)
		rng := rand.New(rand.NewSource(3))
		ref := map[uint64][]byte{}
		// Simulate many FL rounds: read a working set, write it back
		// modified, verify on later reads.
		for round := 0; round < 50; round++ {
			ids := map[uint64]bool{}
			for len(ids) < 10 {
				ids[uint64(rng.Intn(256))] = true
			}
			var got = map[uint64][]byte{}
			for id := range ids {
				data, _, err := o.AOAccess(id)
				if err != nil {
					t.Fatalf("crypto=%v round %d AO(%d): %v", withCrypto, round, id, err)
				}
				want, ok := ref[id]
				if !ok {
					want = make([]byte, 32)
				}
				if !bytes.Equal(data, want) {
					t.Fatalf("crypto=%v round %d id %d: got %v want %v",
						withCrypto, round, id, data[:4], want[:4])
				}
				got[id] = data
			}
			for id, data := range got {
				upd := append([]byte(nil), data...)
				upd[0]++
				if _, err := o.WriteBack(id, upd); err != nil {
					t.Fatalf("crypto=%v round %d WriteBack(%d): %v", withCrypto, round, id, err)
				}
				ref[id] = upd
			}
		}
	}
}

func TestAOAccessDoesNotWriteSSD(t *testing.T) {
	o, ssd, _ := newTestORAM(t, Config{NumBlocks: 128, BlockSize: 16, BucketSlots: 4, EvictPeriod: 4, Seed: 4})
	ssd.ResetStats()
	for i := uint64(0); i < 20; i++ {
		if _, _, err := o.AOAccess(i); err != nil {
			t.Fatal(err)
		}
	}
	st := ssd.Stats()
	if st.Writes != 0 || st.BytesWritten != 0 {
		t.Errorf("AO accesses wrote to SSD: %+v (VTree/Opt 2 violated)", st)
	}
	if st.Reads != uint64(20*o.Levels()) {
		t.Errorf("AO reads = %d, want %d", st.Reads, 20*o.Levels())
	}
}

func TestEOFrequency(t *testing.T) {
	o, ssd, _ := newTestORAM(t, Config{NumBlocks: 128, BlockSize: 16, BucketSlots: 4, EvictPeriod: 5, Seed: 5})
	// Pull 25 blocks out first (so write-backs are legal), then write back.
	data := map[uint64][]byte{}
	for i := uint64(0); i < 25; i++ {
		d, _, err := o.AOAccess(i)
		if err != nil {
			t.Fatal(err)
		}
		data[i] = d
	}
	ssd.ResetStats()
	o.ResetStats()
	for i := uint64(0); i < 25; i++ {
		if _, err := o.WriteBack(i, data[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := o.Stats()
	if st.EOAccesses != 5 { // 25 write-backs / A=5
		t.Errorf("EOAccesses = %d, want 5", st.EOAccesses)
	}
	dst := ssd.Stats()
	wantWrites := uint64(5 * o.Levels())
	if dst.Writes != wantWrites {
		t.Errorf("SSD writes = %d, want %d (only EO writes)", dst.Writes, wantWrites)
	}
}

// TestCountersFollowRootCounter: buckets are written only on the EO
// schedule, so the root counter g alone determines every bucket's write
// counter (Sec 5.2). The bucket at level l, position p lies on the
// reverse-lexicographic eviction path of g' exactly when g' mod 2^l is
// p's l-bit reversal r, so after g EOs it was written (g + 2^l − 1 − r)
// >> l times, and one no eviction path has reached yet is unwritten.
// Checked after every EO of write-backs, dummy write-backs and a final
// flush, sealed and plain.
func TestCountersFollowRootCounter(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		cfg := Config{NumBlocks: 128, BlockSize: 16, BucketSlots: 4, EvictPeriod: 3, Seed: 12}
		if sealed {
			cfg.Engine = testEngine()
		}
		o, _, _ := newTestORAM(t, cfg)
		check := func() {
			t.Helper()
			g, written := o.RootCounter(), 0
			for l := 0; l < o.Levels(); l++ {
				for p := uint32(0); p < 1<<l; p++ {
					r := uint64(bits.Reverse32(p) >> (32 - l))
					want := (g + 1<<l - 1 - r) >> l
					if got := o.tree.Counter(1<<l - 1 + p); got != want {
						t.Fatalf("sealed=%v g=%d: bucket (level %d, position %d) written %d times, want %d", sealed, g, l, p, got, want)
					}
					if want > 0 {
						written++
					}
				}
			}
			if o.tree.Written() != written {
				t.Fatalf("sealed=%v g=%d: %d buckets written, want %d", sealed, g, o.tree.Written(), written)
			}
		}
		rng := rand.New(rand.NewSource(12))
		data := make([]byte, 16)
		for o.RootCounter() < 5*uint64(o.Leaves()) {
			g := o.RootCounter()
			if rng.Intn(3) == 0 {
				if _, err := o.WriteBackDummy(); err != nil {
					t.Fatal(err)
				}
			} else {
				id := uint64(rng.Intn(128))
				if _, _, err := o.AOAccess(id); err != nil {
					t.Fatal(err)
				}
				rng.Read(data)
				if _, err := o.WriteBack(id, data); err != nil {
					t.Fatal(err)
				}
			}
			if o.RootCounter() != g {
				check()
			}
		}
		if _, err := o.Flush(100); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

func TestEvictionLeafOrderCoversTree(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 1024, BlockSize: 16, BucketSlots: 4, EvictPeriod: 4, Seed: 6})
	leaves := o.Leaves()
	seen := map[uint32]bool{}
	for g := uint64(0); g < uint64(leaves); g++ {
		leaf := o.tree.EvictionLeaf(g)
		if leaf >= leaves {
			t.Fatalf("eviction leaf %d out of range %d", leaf, leaves)
		}
		seen[leaf] = true
	}
	if len(seen) != int(leaves) {
		t.Errorf("one period covered %d/%d leaves", len(seen), leaves)
	}
	// Reverse-lexicographic: consecutive g alternate between far-apart
	// subtrees (bit-reversal), so leaf(0)=0 and leaf(1)=leaves/2.
	if o.tree.EvictionLeaf(0) != 0 || o.tree.EvictionLeaf(1) != leaves/2 {
		t.Errorf("order not reverse-lexicographic: %d, %d", o.tree.EvictionLeaf(0), o.tree.EvictionLeaf(1))
	}
}

func TestStashBoundedOverManyRounds(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 512, BlockSize: 16, BucketSlots: 8, EvictPeriod: 8, Seed: 7})
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 100; round++ {
		ids := map[uint64]bool{}
		for len(ids) < 20 {
			ids[uint64(rng.Intn(512))] = true
		}
		blocks := map[uint64][]byte{}
		for id := range ids {
			d, _, err := o.AOAccess(id)
			if err != nil {
				t.Fatal(err)
			}
			blocks[id] = d
		}
		for id, d := range blocks {
			if _, err := o.WriteBack(id, d); err != nil {
				t.Fatalf("round %d: %v (stash peak %d)", round, err, o.StashPeak())
			}
		}
	}
	if o.StashPeak() >= o.cfg.StashCapacity {
		t.Errorf("stash peak %d hit capacity %d", o.StashPeak(), o.cfg.StashCapacity)
	}
}

func TestDummyAccessesChangeNothing(t *testing.T) {
	o, ssd, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 16, BucketSlots: 4, EvictPeriod: 4, Seed: 9})
	want := make([]byte, 16)
	want[3] = 7
	d, _, err := o.AOAccess(5)
	if err != nil {
		t.Fatal(err)
	}
	copy(d, want)
	if _, err := o.WriteBack(5, d); err != nil {
		t.Fatal(err)
	}
	ssd.ResetStats()
	for i := 0; i < 10; i++ {
		if _, err := o.AODummy(); err != nil {
			t.Fatal(err)
		}
	}
	if st := ssd.Stats(); st.Writes != 0 {
		t.Errorf("dummy AO wrote to SSD: %+v", st)
	}
	got, _, err := o.AOAccess(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("block corrupted by dummies: %v", got)
	}
}

func TestWriteBackDummyAdvancesEvictionSchedule(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 16, BucketSlots: 4, EvictPeriod: 3, Seed: 10})
	for i := 0; i < 6; i++ {
		if _, err := o.WriteBackDummy(); err != nil {
			t.Fatal(err)
		}
	}
	if o.Stats().EOAccesses != 2 {
		t.Errorf("EOAccesses = %d, want 2", o.Stats().EOAccesses)
	}
	if o.RootCounter() != 2 {
		t.Errorf("root counter = %d, want 2", o.RootCounter())
	}
}

func TestInitFnServesUnwrittenBlocks(t *testing.T) {
	initFn := func(id uint64) []byte {
		b := make([]byte, 16)
		b[0] = byte(id)
		b[1] = 0xEE
		return b
	}
	o, _, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 16, BucketSlots: 4, EvictPeriod: 4, Seed: 11, InitFn: initFn})
	d, _, err := o.AOAccess(9)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 9 || d[1] != 0xEE {
		t.Errorf("InitFn block = %v", d[:2])
	}
}

func TestPhantomMatchesFunctionalTraffic(t *testing.T) {
	run := func(phantom bool) (device.Stats, device.Stats) {
		cfg := Config{NumBlocks: 256, BlockSize: 32, BucketSlots: 8, EvictPeriod: 6, Seed: 12, Phantom: phantom}
		ssd := device.NewSSD(1 << 32)
		dram := device.NewDRAM(1 << 32)
		o, err := New(cfg, ssd, dram)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 40; i++ {
			d, _, err := o.AOAccess(i)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.WriteBack(i, d[:cfg.BlockSize]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if _, err := o.AODummy(); err != nil {
				t.Fatal(err)
			}
			if _, err := o.WriteBackDummy(); err != nil {
				t.Fatal(err)
			}
		}
		return ssd.Stats(), dram.Stats()
	}
	fs, fd := run(false)
	ps, pd := run(true)
	if fs != ps {
		t.Errorf("SSD: functional %+v != phantom %+v", fs, ps)
	}
	if fd != pd {
		t.Errorf("DRAM: functional %+v != phantom %+v", fd, pd)
	}
}

func TestScratchpadReducesDRAMTraffic(t *testing.T) {
	run := func(scratch bool) device.Stats {
		ssd := device.NewSSD(1 << 32)
		dram := device.NewDRAM(1 << 32)
		o, err := New(Config{
			NumBlocks: 1 << 16, BlockSize: 64, Seed: 13,
			Phantom: true, HasScratchpad: scratch,
		}, ssd, dram)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			if _, _, err := o.AOAccess(i); err != nil {
				t.Fatal(err)
			}
			if _, err := o.WriteBack(i, nil); err != nil {
				t.Fatal(err)
			}
		}
		return dram.Stats()
	}
	with, without := run(true), run(false)
	if without.BytesRead <= with.BytesRead {
		t.Errorf("no-scratchpad DRAM reads (%d) not larger than with (%d)",
			without.BytesRead, with.BytesRead)
	}
}

func TestSSDBytesMatchPathMath(t *testing.T) {
	o, ssd, _ := newTestORAM(t, Config{NumBlocks: 1024, BlockSize: 64, Seed: 14, Phantom: true})
	ssd.ResetStats()
	const nAO, nWB = 100, 100
	for i := 0; i < nAO; i++ {
		if _, _, err := o.AOAccess(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nWB; i++ {
		if _, err := o.WriteBack(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := ssd.Stats()
	eo := uint64(nWB / o.EvictPeriod())
	wantRead := (nAO + eo) * o.PathBytes()
	wantWrite := eo * o.PathBytes()
	if st.BytesRead != wantRead {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, wantRead)
	}
	if st.BytesWritten != wantWrite {
		t.Errorf("BytesWritten = %d, want %d", st.BytesWritten, wantWrite)
	}
}

func TestVTreeBytesIsSmall(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 1 << 20, BlockSize: 64, Seed: 15, Engine: testEngine()})
	// Paper: 1 bit per block plus encryption metadata → a few MB for
	// millions of entries; certainly far below the table itself.
	table := uint64(1<<20) * 64
	if vb := o.VTreeBytes(); vb == 0 || vb > table/50 {
		t.Errorf("VTreeBytes = %d (table %d)", vb, table)
	}
}

func TestFlushDrainsStash(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 256, BlockSize: 16, BucketSlots: 8, EvictPeriod: 64, Seed: 16})
	blocks := map[uint64][]byte{}
	for i := uint64(0); i < 30; i++ {
		d, _, err := o.AOAccess(i)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = d
	}
	for i, d := range blocks {
		if _, err := o.WriteBack(i, d); err != nil {
			t.Fatal(err)
		}
	}
	if o.StashLen() == 0 {
		t.Fatal("test needs a non-empty stash (A larger than write-backs)")
	}
	if _, err := o.Flush(1000); err != nil {
		t.Fatal(err)
	}
	if o.StashLen() != 0 {
		t.Errorf("stash not drained: %d", o.StashLen())
	}
	// Blocks still readable afterwards.
	for i := uint64(0); i < 30; i++ {
		d, _, err := o.AOAccess(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d, blocks[i]) {
			t.Fatalf("block %d corrupted after flush", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ssd := device.NewSSD(1 << 30)
	dram := device.NewDRAM(1 << 30)
	bad := []Config{
		{NumBlocks: 0, BlockSize: 8},
		{NumBlocks: 8, BlockSize: 0},
		{NumBlocks: 8, BlockSize: 8, Amplification: 0.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, ssd, dram); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Undersized SSD rejected.
	tiny := device.NewSSD(4096)
	if _, err := New(Config{NumBlocks: 1 << 20, BlockSize: 64}, tiny, dram); err == nil {
		t.Error("undersized SSD accepted")
	}
}

func TestOutOfRangeAccesses(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 16, BlockSize: 8, BucketSlots: 4, EvictPeriod: 4, Seed: 17})
	if _, _, err := o.AOAccess(16); err == nil {
		t.Error("out-of-range AO accepted")
	}
	if _, err := o.WriteBack(16, make([]byte, 8)); err == nil {
		t.Error("out-of-range write-back accepted")
	}
	if _, err := o.WriteBack(3, make([]byte, 5)); err == nil {
		t.Error("wrong-size write-back accepted")
	}
}

func TestVanillaAccessReadYourWrites(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 128, BlockSize: 8, BucketSlots: 4, EvictPeriod: 3, Seed: 20})
	ref := map[uint64]byte{}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 800; i++ {
		id := uint64(rng.Intn(128))
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			if _, _, err := o.VanillaAccess(id, func(data []byte) { data[0] = v }); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			ref[id] = v
		} else {
			got, _, err := o.VanillaAccess(id, nil)
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			if got[0] != ref[id] {
				t.Fatalf("iter %d id %d: got %d want %d", i, id, got[0], ref[id])
			}
		}
	}
}

func TestVanillaWritesMoreThanFLFriendly(t *testing.T) {
	// FEDORA's Optimization 1: the same per-round work costs far fewer SSD
	// writes with the FL-friendly schedule. Compare k reads + k write-backs
	// under both schedules.
	const k = 200
	run := func(vanilla bool) uint64 {
		ssd := device.NewSSD(1 << 32)
		dram := device.NewDRAM(1 << 30)
		o, err := New(Config{NumBlocks: 1024, BlockSize: 64, Seed: 22, Phantom: true}, ssd, dram)
		if err != nil {
			t.Fatal(err)
		}
		if vanilla {
			// Vanilla: download = k accesses; upload = k more accesses.
			for i := 0; i < 2*k; i++ {
				if _, _, err := o.VanillaAccess(uint64(i%1024), nil); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := 0; i < k; i++ {
				if _, _, err := o.AOAccess(uint64(i % 1024)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < k; i++ {
				if _, err := o.WriteBack(uint64(i%1024), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ssd.Stats().BytesWritten
	}
	flFriendly := run(false)
	vanilla := run(true)
	if vanilla < 15*flFriendly/10 {
		t.Errorf("vanilla wrote %d vs FL-friendly %d — Optimization 1 should save ~2x", vanilla, flFriendly)
	}
}

func TestVanillaOutOfRange(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 16, BlockSize: 8, BucketSlots: 4, EvictPeriod: 4, Seed: 23})
	if _, _, err := o.VanillaAccess(16, nil); err == nil {
		t.Error("out-of-range vanilla access accepted")
	}
}

func TestPeekDoesNotDisturbState(t *testing.T) {
	o, ssd, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 8, BucketSlots: 4, EvictPeriod: 4, Seed: 24})
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d, _, err := o.AOAccess(5)
	if err != nil {
		t.Fatal(err)
	}
	copy(d, want)
	if _, err := o.WriteBack(5, d); err != nil {
		t.Fatal(err)
	}
	ssd.ResetStats()
	// Peek sees the value whether it sits in the stash or the tree, and
	// generates zero device traffic.
	got, err := o.Peek(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Peek = %v", got)
	}
	if st := ssd.Stats(); st.Reads != 0 && st.BytesRead != 0 {
		t.Errorf("Peek charged traffic: %+v", st)
	}
	if _, err := o.Flush(100); err != nil {
		t.Fatal(err)
	}
	got, err = o.Peek(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Peek after flush = %v", got)
	}
	// Unwritten block yields the init value; out of range errors.
	if v, err := o.Peek(60); err != nil || v[0] != 0 {
		t.Errorf("Peek(unwritten) = %v, %v", v, err)
	}
	if _, err := o.Peek(64); err == nil {
		t.Error("Peek out of range accepted")
	}
}
