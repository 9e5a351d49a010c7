package pathoram

import (
	"bytes"
	"testing"
)

// TestUpdateSteadyStateAllocs: once every block has been written and the
// stash's recycled blocks cover a path, an access reads, opens, unpacks,
// packs, seals and writes its whole path out of the ORAM's own scratch.
// What is left is the cipher.NewCTR stream per opened or sealed bucket.
func TestUpdateSteadyStateAllocs(t *testing.T) {
	for _, withCrypto := range []bool{false, true} {
		cfg := Config{NumBlocks: 256, BlockSize: 64, Seed: 5}
		if withCrypto {
			cfg.Engine = testEngine()
		}
		o, _ := newTestORAM(t, cfg)
		touch := func(data []byte) { data[0]++ }
		var id uint64
		step := func() {
			if _, err := o.Update(id%cfg.NumBlocks, touch); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for i := 0; i < 4*int(cfg.NumBlocks); i++ {
			step()
		}
		want := 0.0
		if withCrypto {
			want = float64(2 * 2 * o.Levels()) // one CTR stream (<= 2 allocations) per bucket, each way
		}
		if n := testing.AllocsPerRun(200, step); n > want {
			t.Errorf("crypto=%v: Update allocates %.1f times per access, want <= %.0f", withCrypto, n, want)
		}
	}
}

// TestReadResultsAreCallerOwned: k retained Read and Peek results keep
// their values while later accesses reuse the ORAM's scratch and recycle
// its stash blocks.
func TestReadResultsAreCallerOwned(t *testing.T) {
	o, _ := newTestORAM(t, Config{NumBlocks: 128, BlockSize: 16, Seed: 6, Engine: testEngine()})
	want := func(id uint64) []byte { return bytes.Repeat([]byte{byte(id + 1)}, 16) }
	for id := uint64(0); id < 128; id++ {
		if _, err := o.Write(id, want(id)); err != nil {
			t.Fatal(err)
		}
	}
	const k = 32
	var reads, peeks [k][]byte
	for id := uint64(0); id < k; id++ {
		var err error
		if reads[id], _, err = o.Read(id); err != nil {
			t.Fatal(err)
		}
		if peeks[id], err = o.Peek(id + k); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < 128; id++ { // churn every path, scratch and recycled block
		if _, err := o.Write(id, bytes.Repeat([]byte{0xEE}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < k; id++ {
		if !bytes.Equal(reads[id], want(id)) {
			t.Errorf("retained Read(%d) = %x, clobbered by a later access", id, reads[id])
		}
		if !bytes.Equal(peeks[id], want(id+k)) {
			t.Errorf("retained Peek(%d) = %x, clobbered by a later access", id+k, peeks[id])
		}
	}
}
