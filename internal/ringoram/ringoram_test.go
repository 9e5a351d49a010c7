package ringoram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/pathoram"
	"repro/internal/tee"
)

func testEngine() *tee.Engine {
	var key [32]byte
	key[0] = 0x77
	return tee.NewEngine(key)
}

func newTestORAM(t *testing.T, cfg Config) (*ORAM, *device.Sim, *device.Sim) {
	t.Helper()
	dev := device.NewDRAM(1 << 31)
	dram := device.NewDRAM(1 << 30)
	o, err := New(cfg, dev, dram)
	if err != nil {
		t.Fatal(err)
	}
	return o, dev, dram
}

func TestReadYourWritesRandomWorkload(t *testing.T) {
	for _, withCrypto := range []bool{false, true} {
		cfg := Config{NumBlocks: 256, BlockSize: 16, Seed: 1}
		if withCrypto {
			cfg.Engine = testEngine()
		}
		o, _, _ := newTestORAM(t, cfg)
		rng := rand.New(rand.NewSource(2))
		ref := map[uint64][]byte{}
		for i := 0; i < 4000; i++ {
			id := uint64(rng.Intn(256))
			if rng.Intn(2) == 0 {
				data := make([]byte, 16)
				rng.Read(data)
				if _, err := o.Write(id, data); err != nil {
					t.Fatalf("crypto=%v iter %d write: %v", withCrypto, i, err)
				}
				ref[id] = data
			} else {
				got, _, err := o.Read(id)
				if err != nil {
					t.Fatalf("crypto=%v iter %d read: %v", withCrypto, i, err)
				}
				want, ok := ref[id]
				if !ok {
					want = make([]byte, 16)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("crypto=%v iter %d id %d: got %x want %x", withCrypto, i, id, got[:4], want[:4])
				}
			}
		}
	}
}

func TestOnlineBandwidthBelowPathORAM(t *testing.T) {
	// Ring ORAM's selling point: per-access device bytes far below Path
	// ORAM's full-path read+write.
	const n, bs, accesses = 1024, 64, 500

	ringDev := device.NewDRAM(1 << 31)
	ringDram := device.NewDRAM(1 << 30)
	ring, err := New(Config{NumBlocks: n, BlockSize: bs, Seed: 3}, ringDev, ringDram)
	if err != nil {
		t.Fatal(err)
	}
	pathDev := device.NewDRAM(1 << 31)
	path, err := pathoram.New(pathoram.Config{NumBlocks: n, BlockSize: bs, Seed: 3}, pathDev)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, bs)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < accesses; i++ {
		id := uint64(rng.Intn(n))
		if _, err := ring.Write(id, data); err != nil {
			t.Fatal(err)
		}
		if _, err := path.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}
	ringBytes := ringDev.Stats().BytesRead + ringDev.Stats().BytesWritten
	pathBytes := pathDev.Stats().BytesRead + pathDev.Stats().BytesWritten
	if ringBytes*2 > pathBytes {
		t.Errorf("ring %d bytes not ≤ half of path %d bytes", ringBytes, pathBytes)
	}
}

func TestEarlyReshufflesHappen(t *testing.T) {
	// Hammering a small ORAM exhausts bucket dummy budgets (especially the
	// root), forcing early reshuffles.
	o, _, _ := newTestORAM(t, Config{
		NumBlocks: 64, BlockSize: 8, RealSlots: 4, DummySlots: 2,
		EvictPeriod: 64, // effectively disable scheduled evictions
		Seed:        5,
	})
	data := make([]byte, 8)
	for i := 0; i < 200; i++ {
		if _, err := o.Write(uint64(i%64), data); err != nil {
			t.Fatalf("iter %d: %v (stash %d)", i, err, o.StashLen())
		}
	}
	if o.Stats().EarlyReshuffles == 0 {
		t.Error("no early reshuffles despite tiny dummy budget")
	}
}

func TestScheduledEvictionCadence(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{
		NumBlocks: 256, BlockSize: 8, RealSlots: 8, DummySlots: 8,
		EvictPeriod: 4, Seed: 6,
	})
	data := make([]byte, 8)
	for i := 0; i < 40; i++ {
		if _, err := o.Write(uint64(i%256), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Stats().Evictions; got != 10 {
		t.Errorf("evictions = %d, want 10 (A=4, 40 accesses)", got)
	}
}

func TestStashBounded(t *testing.T) {
	o, _, _ := newTestORAM(t, Config{NumBlocks: 512, BlockSize: 8, Seed: 7})
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 8)
	for i := 0; i < 5000; i++ {
		if _, err := o.Write(uint64(rng.Intn(512)), data); err != nil {
			t.Fatalf("iter %d: %v (stash peak %d)", i, err, o.StashPeak())
		}
	}
	if o.StashPeak() >= o.cfg.StashCapacity {
		t.Errorf("stash peak %d at capacity %d", o.StashPeak(), o.cfg.StashCapacity)
	}
}

func TestPhantomMatchesFunctionalTraffic(t *testing.T) {
	run := func(phantom bool) (device.Stats, device.Stats) {
		dev := device.NewDRAM(1 << 31)
		dram := device.NewDRAM(1 << 30)
		o, err := New(Config{NumBlocks: 256, BlockSize: 16, Seed: 9, Phantom: phantom}, dev, dram)
		if err != nil {
			t.Fatal(err)
		}
		// 256 distinct ids, past the default stash capacity of 208 (Z 8,
		// 7 levels, A 8): a phantom access must not fill the stash.
		data := make([]byte, 16)
		for i := 0; i < 600; i++ {
			if _, err := o.Write(uint64(i%256), data); err != nil {
				t.Fatal(err)
			}
		}
		return dev.Stats(), dram.Stats()
	}
	fDev, fDram := run(false)
	pDev, pDram := run(true)
	// The online phase is access-pattern identical; early reshuffles
	// depend on which buckets REAL blocks land in, which phantom mode
	// cannot track, so compare only the scheduled components: totals must
	// agree within the reshuffle variance (here: exact match expected
	// because RNG-driven leaves are identical and reshuffles derive from
	// reads counters updated the same way in both modes).
	if fDev != pDev {
		t.Errorf("device traffic differs:\nfunctional %+v\nphantom    %+v", fDev, pDev)
	}
	if fDram != pDram {
		t.Errorf("DRAM traffic differs:\nfunctional %+v\nphantom    %+v", fDram, pDram)
	}
}

func TestValidation(t *testing.T) {
	dev := device.NewDRAM(1 << 20)
	dram := device.NewDRAM(1 << 20)
	bad := []Config{
		{NumBlocks: 0, BlockSize: 8},
		{NumBlocks: 8, BlockSize: 0},
		{NumBlocks: 8, BlockSize: 8, RealSlots: -1},
		{NumBlocks: 8, BlockSize: 8, Amplification: 0.5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, dev, dram); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	tiny := device.NewDRAM(64)
	if _, err := New(Config{NumBlocks: 1024, BlockSize: 64}, tiny, dram); err == nil {
		t.Error("undersized device accepted")
	}
	o, _, _ := newTestORAM(t, Config{NumBlocks: 16, BlockSize: 8, Seed: 10})
	if _, _, err := o.Read(16); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := o.Write(3, make([]byte, 5)); err == nil {
		t.Error("wrong-size write accepted")
	}
}

func TestWritesOnlyOnReshuffleOrEviction(t *testing.T) {
	o, dev, _ := newTestORAM(t, Config{
		NumBlocks: 256, BlockSize: 16, RealSlots: 8, DummySlots: 8,
		EvictPeriod: 1 << 30, // no scheduled evictions
		Seed:        11,
	})
	dev.ResetStats()
	// A few accesses that cannot exhaust any bucket's dummy budget.
	for i := 0; i < 4; i++ {
		if _, _, err := o.Read(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w := dev.Stats().Writes; w != 0 {
		t.Errorf("reads caused %d device writes", w)
	}
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// goldenSHA pins a Ring ORAM after a seeded workload of reads and writes
// with early reshuffles and scheduled evictions, plain and sealed: every
// payload read, the device image and counters, the DRAM counters, the
// stash (ids, leaves, payloads and high-water mark), every bucket's
// metadata and the event counters. The metadata and counters are hashed
// as little-endian values in a fixed order, so the golden pins the Ring
// ORAM's state and not the Go layout of the structs that hold it.
var goldenSHA = map[bool]string{
	false: "444aea180cb0cf01f87f02f113e4855b97449b1c5354e2af3d0bf8d13705e0c2",
	true:  "f6e61368572c26defefb236c0191b837a196de86d3b5b3d9e9e7257e7278621f",
}

func TestGoldenWorkload(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		cfg := Config{NumBlocks: 200, BlockSize: 16, RealSlots: 4, DummySlots: 2, EvictPeriod: 3, Seed: 23}
		if sealed {
			cfg.Engine = testEngine()
		}
		o, dev, dram := newTestORAM(t, cfg)
		rng := rand.New(rand.NewSource(23))
		h := sha256.New()
		for i := 0; i < 4000; i++ {
			id := uint64(rng.Intn(200))
			if rng.Intn(2) == 0 {
				data := make([]byte, 16)
				rng.Read(data)
				if _, err := o.Write(id, data); err != nil {
					t.Fatalf("sealed=%v step %d: %v", sealed, i, err)
				}
			} else {
				got, _, err := o.Read(id)
				if err != nil {
					t.Fatalf("sealed=%v step %d: %v", sealed, i, err)
				}
				h.Write(got)
			}
		}
		st := o.Stats()
		if st.EarlyReshuffles == 0 || st.Evictions == 0 || o.StashPeak() == 0 {
			t.Fatalf("sealed=%v: the workload did not exercise eviction: %+v, peak %d", sealed, st, o.StashPeak())
		}
		devSnap, err := dev.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		stashSnap, err := o.stash.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{devSnap, stashSnap} {
			fmt.Fprintf(h, "%d:", len(b))
			h.Write(b)
		}
		idxs := make([]uint32, 0, len(o.meta))
		for idx := range o.meta {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		var buf []byte
		for _, idx := range idxs {
			m := o.meta[idx]
			buf = binary.LittleEndian.AppendUint32(buf[:0], idx)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.ids)))
			for i := range m.ids {
				buf = binary.LittleEndian.AppendUint64(buf, m.ids[i])
				buf = binary.LittleEndian.AppendUint32(buf, m.leaves[i])
				buf = appendBool(buf, m.valid[i])
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.touched)))
			for _, b := range m.touched {
				buf = appendBool(buf, b)
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.reads))
			buf = binary.LittleEndian.AppendUint64(buf, m.ctr)
			h.Write(buf)
		}
		ds := dram.Stats()
		buf = buf[:0]
		for _, v := range []uint64{
			st.Accesses, st.SlotReads, st.BucketWrites, st.EarlyReshuffles, st.Evictions, uint64(st.Time),
			ds.Reads, ds.Writes, ds.BytesRead, ds.BytesWritten, uint64(ds.BusyTime),
			o.evictCount,
		} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenSHA[sealed] {
			t.Errorf("sealed=%v: sha256 = %s, want %s", sealed, got, goldenSHA[sealed])
		}
	}
}

// TestFaultsAreErrors: a device fault anywhere in an access — a slot
// read online, an eviction's or a reshuffle's reads, a slot write — and
// a slot that fails authentication come back from Access as errors
// wrapping device.ErrInjected and tee.ErrAuthFailed; nothing panics.
func TestFaultsAreErrors(t *testing.T) {
	ssd := device.NewDRAM(1 << 31)
	o, err := New(Config{NumBlocks: 64, BlockSize: 16, Seed: 1}, device.NewTransientFaulty(ssd, 0.05, 3), device.NewDRAM(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16)
	faults := 0
	for i := 0; i < 2000; i++ {
		var err error
		if i%2 == 0 {
			_, err = o.Write(uint64(i%64), data)
		} else {
			_, _, err = o.Read(uint64(i * 7 % 64))
		}
		if err != nil {
			if !errors.Is(err, device.ErrInjected) {
				t.Fatalf("access %d: err %v, want device.ErrInjected", i, err)
			}
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no access hit an injected fault")
	}

	o, dev, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 16, Seed: 2, Engine: testEngine()})
	for i := 0; i < 300; i++ {
		if _, err := o.Write(uint64(i%64), data); err != nil {
			t.Fatal(err)
		}
	}
	idxs := make([]uint32, 0, len(o.meta))
	for idx := range o.meta {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		m := o.meta[idx]
		for s, valid := range m.valid {
			if !valid || m.touched[s] || o.stash.Get(m.ids[s]) != nil {
				continue
			}
			var b [1]byte
			addr := o.slotAddr(idx, s) + slotMetaSize
			if err := dev.PeekAt(addr, b[:]); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 1
			if err := dev.PokeAt(addr, b[:]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := o.Read(m.ids[s]); !errors.Is(err, tee.ErrAuthFailed) {
				t.Fatalf("reading block %d from a flipped slot: err %v, want tee.ErrAuthFailed", m.ids[s], err)
			}
			return
		}
	}
	t.Fatal("no block was left in the tree to tamper with")
}
