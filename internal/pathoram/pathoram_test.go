package pathoram

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/tee"
	"repro/internal/tree"
)

func newTestORAM(t *testing.T, cfg Config) (*ORAM, *device.Sim) {
	t.Helper()
	cfg.setDefaults()
	leaves, levels := tree.Geometry(cfg.NumBlocks, cfg.BucketSlots, cfg.Amplification)
	_ = leaves
	_ = levels
	dev := device.NewDRAM(1 << 30)
	o, err := New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	return o, dev
}

func testEngine() *tee.Engine {
	var key [32]byte
	key[0] = 9
	return tee.NewEngine(key)
}

func TestGeometry(t *testing.T) {
	leaves, levels := tree.Geometry(1024, 4, 8)
	// target slots ≈ 8*1024 = 8192; 2*leaves*4 ≈ 8192 → leaves ≈ 1024.
	if leaves < 512 || leaves > 2048 {
		t.Errorf("leaves = %d", leaves)
	}
	if levels < 10 || levels > 12 {
		t.Errorf("levels = %d", levels)
	}
	// Power of two.
	if leaves&(leaves-1) != 0 {
		t.Errorf("leaves %d not power of two", leaves)
	}
	// Tiny N still yields a valid tree.
	leaves, levels = tree.Geometry(1, 4, 8)
	if leaves < 2 || levels < 2 {
		t.Errorf("tiny geometry: leaves=%d levels=%d", leaves, levels)
	}
}

func TestReadUnwrittenReturnsInit(t *testing.T) {
	o, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 16, Seed: 1})
	got, _, err := o.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Errorf("unwritten block = %v, want zeros", got)
	}
}

func TestInitFn(t *testing.T) {
	initFn := func(id uint64) []byte {
		b := make([]byte, 8)
		b[0] = byte(id)
		return b
	}
	o, _ := newTestORAM(t, Config{NumBlocks: 32, BlockSize: 8, Seed: 2, InitFn: initFn})
	got, _, err := o.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("InitFn block = %v", got)
	}
}

func TestWriteThenRead(t *testing.T) {
	o, _ := newTestORAM(t, Config{NumBlocks: 128, BlockSize: 32, Seed: 3})
	want := bytes.Repeat([]byte{0xAB}, 32)
	if _, err := o.Write(10, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := o.Read(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back %v", got[:4])
	}
}

func TestReadYourWritesRandomWorkload(t *testing.T) {
	for _, withCrypto := range []bool{false, true} {
		cfg := Config{NumBlocks: 256, BlockSize: 16, Seed: 4, StashCapacity: 500}
		if withCrypto {
			cfg.Engine = testEngine()
		}
		o, _ := newTestORAM(t, cfg)
		rng := rand.New(rand.NewSource(5))
		ref := map[uint64][]byte{}
		for i := 0; i < 3000; i++ {
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
					t.Fatalf("crypto=%v iter %d id %d: got %v want %v", withCrypto, i, id, got[:4], want[:4])
				}
			}
		}
	}
}

func TestStashStaysBounded(t *testing.T) {
	o, _ := newTestORAM(t, Config{NumBlocks: 512, BlockSize: 8, Seed: 6, StashCapacity: 400})
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 8)
	for i := 0; i < 5000; i++ {
		if _, err := o.Write(uint64(rng.Intn(512)), data); err != nil {
			t.Fatal(err)
		}
	}
	// Empirically the Path ORAM stash stays tiny (Z=4); generous bound.
	if o.StashPeak() > 100 {
		t.Errorf("stash peak = %d, suspiciously large", o.StashPeak())
	}
}

func TestAccessTrafficShape(t *testing.T) {
	o, dev := newTestORAM(t, Config{NumBlocks: 128, BlockSize: 16, Seed: 8})
	dev.ResetStats()
	if _, _, err := o.Read(0); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	levels := uint64(o.Levels())
	if st.Reads != levels || st.Writes != levels {
		t.Errorf("reads=%d writes=%d, want %d each (one full path in, one out)",
			st.Reads, st.Writes, levels)
	}
	wantBytes := levels * uint64(o.BucketStoredSize())
	if st.BytesRead != wantBytes || st.BytesWritten != wantBytes {
		t.Errorf("bytesRead=%d bytesWritten=%d, want %d", st.BytesRead, st.BytesWritten, wantBytes)
	}
}

func TestPhantomMatchesFunctionalTraffic(t *testing.T) {
	run := func(phantom bool) device.Stats {
		cfg := Config{NumBlocks: 128, BlockSize: 16, Seed: 9, Phantom: phantom}
		dev := device.NewDRAM(1 << 30)
		o, err := New(cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 16)
		for i := uint64(0); i < 50; i++ {
			if _, err := o.Write(i%128, data); err != nil {
				t.Fatal(err)
			}
			if _, _, err := o.Read(i % 128); err != nil {
				t.Fatal(err)
			}
		}
		return dev.Stats()
	}
	f, p := run(false), run(true)
	if f.Reads != p.Reads || f.Writes != p.Writes ||
		f.BytesRead != p.BytesRead || f.BytesWritten != p.BytesWritten {
		t.Errorf("functional %+v != phantom %+v", f, p)
	}
}

func TestPageAlignedBuckets(t *testing.T) {
	dev := device.NewSSD(1 << 32)
	o, err := New(Config{
		NumBlocks: 1024, BlockSize: 64, BucketSlots: 60,
		Amplification: 2, Seed: 10, AlignBucketToPage: true, Engine: testEngine(),
	}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if o.BucketStoredSize()%4096 != 0 {
		t.Errorf("bucket size %d not page aligned", o.BucketStoredSize())
	}
	if _, _, err := o.Read(1); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptedBucketsUnreadableOnDevice(t *testing.T) {
	dev := device.NewDRAM(1 << 30)
	o, err := New(Config{NumBlocks: 64, BlockSize: 32, Seed: 11, Engine: testEngine()}, dev)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0x5A}, 32)
	if _, err := o.Write(3, secret); err != nil {
		t.Fatal(err)
	}
	// Scan the whole device image for the plaintext.
	img := make([]byte, o.RequiredBytes())
	if _, err := dev.ReadAt(0, img); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(img, secret[:16]) {
		t.Error("plaintext payload visible on untrusted device")
	}
}

func TestConfigValidation(t *testing.T) {
	dev := device.NewDRAM(1 << 20)
	bad := []Config{
		{NumBlocks: 0, BlockSize: 8},
		{NumBlocks: 8, BlockSize: 0},
		{NumBlocks: 8, BlockSize: 8, BucketSlots: -1},
		{NumBlocks: 8, BlockSize: 8, Amplification: 0.5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, dev); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDeviceTooSmall(t *testing.T) {
	dev := device.NewDRAM(128)
	if _, err := New(Config{NumBlocks: 1024, BlockSize: 64, Seed: 1}, dev); err == nil {
		t.Error("undersized device accepted")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	o, _ := newTestORAM(t, Config{NumBlocks: 16, BlockSize: 8, Seed: 12})
	if _, _, err := o.Read(16); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := o.Write(3, make([]byte, 7)); err == nil {
		t.Error("wrong-size write accepted")
	}
}

func TestStatsCount(t *testing.T) {
	o, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 8, Seed: 13})
	for i := 0; i < 5; i++ {
		if _, _, err := o.Read(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := o.Stats()
	if st.Accesses != 5 {
		t.Errorf("Accesses = %d", st.Accesses)
	}
	if st.BucketReads != uint64(5*o.Levels()) || st.BucketWrite != uint64(5*o.Levels()) {
		t.Errorf("bucket reads/writes = %d/%d", st.BucketReads, st.BucketWrite)
	}
	if st.Time <= 0 {
		t.Error("modelled time not positive")
	}
	o.ResetStats()
	if o.Stats().Accesses != 0 {
		t.Error("ResetStats did not zero")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []byte {
		o, _ := newTestORAM(t, Config{NumBlocks: 64, BlockSize: 8, Seed: 99})
		data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		for i := uint64(0); i < 20; i++ {
			if _, err := o.Write(i%64, data); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := o.Read(5)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different results")
	}
}
