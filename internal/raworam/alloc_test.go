package raworam

import (
	"bytes"
	"testing"
)

// TestAOWriteBackSteadyStateAllocs: in steady state an AO access + write-
// back pair allocates the caller-owned result and nothing else of its
// own — buckets are read, opened, packed, sealed and stored out of the
// ORAM's scratch, and eviction reuses the stash blocks it released.
// Sealing adds nothing: the engine opens and seals in place.
func TestAOWriteBackSteadyStateAllocs(t *testing.T) {
	for _, withCrypto := range []bool{false, true} {
		cfg := Config{NumBlocks: 4096, BlockSize: 64, Seed: 5}
		if withCrypto {
			cfg.Engine = testEngine()
		}
		o, _, _ := newTestORAM(t, cfg)
		var id uint64
		step := func() {
			data, _, err := o.AOAccess(id % cfg.NumBlocks)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.WriteBack(id%cfg.NumBlocks, data); err != nil {
				t.Fatal(err)
			}
			id += 7
		}
		for i := 0; i < 3*int(cfg.NumBlocks); i++ {
			step()
		}
		const want = 2.0 // the result, plus a stash hit's replacement block now and then
		if n := testing.AllocsPerRun(2000, step); n > want {
			t.Errorf("crypto=%v: AOAccess+WriteBack allocates %.1f times per pair, want <= %.1f", withCrypto, n, want)
		}
	}
}

// TestAOResultsAreCallerOwned: the benchmark kernel (and the prefetch
// fetcher's callers) hold k AOAccess results across later accesses, and
// evaluation holds Peek results; none may alias scratch that a later
// bucket read, eviction or recycled stash block overwrites.
func TestAOResultsAreCallerOwned(t *testing.T) {
	cfg := Config{NumBlocks: 512, BlockSize: 16, BucketSlots: 4, EvictPeriod: 3, Seed: 8, Engine: testEngine()}
	o, _, _ := newTestORAM(t, cfg)
	want := func(id uint64) []byte { return bytes.Repeat([]byte{byte(id%251 + 1)}, 16) }
	for id := uint64(0); id < cfg.NumBlocks; id++ {
		if _, _, err := o.AOAccess(id); err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteBack(id, want(id)); err != nil {
			t.Fatal(err)
		}
	}
	const k = 64
	var held, peeked [k][]byte
	for id := uint64(0); id < k; id++ { // some from the tree, the latest from the stash
		var err error
		if peeked[id], err = o.Peek(cfg.NumBlocks - 1 - id); err != nil {
			t.Fatal(err)
		}
		if held[id], _, err = o.AOAccess(cfg.NumBlocks - 1 - id); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < 256; id++ { // churn: path reads, evictions, recycled blocks
		if _, _, err := o.AOAccess(id); err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteBack(id, bytes.Repeat([]byte{0xEE}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < k; i++ {
		id := cfg.NumBlocks - 1 - i
		if !bytes.Equal(held[i], want(id)) {
			t.Errorf("retained AOAccess(%d) = %x, clobbered by a later access", id, held[i])
		}
		if !bytes.Equal(peeked[i], want(id)) {
			t.Errorf("retained Peek(%d) = %x, clobbered by a later access", id, peeked[i])
		}
	}
	for i := uint64(0); i < k; i++ { // and they write back intact
		if _, err := o.WriteBack(cfg.NumBlocks-1-i, held[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < k; i++ {
		id := cfg.NumBlocks - 1 - i
		if got, err := o.Peek(id); err != nil || !bytes.Equal(got, want(id)) {
			t.Errorf("Peek(%d) after write-back = %x, %v", id, got, err)
		}
	}
}

// TestBatchSteadyStateAllocs: in steady state a 256-id AOAccessBatch
// plus the 256 write-backs that return the blocks allocates nothing
// sealed or not — the payloads land in the caller's buffer out of the
// path buffer and the ORAM's work list, and the engine opens and seals
// every bucket in place.
func TestBatchSteadyStateAllocs(t *testing.T) {
	const k = 256
	for _, withCrypto := range []bool{false, true} {
		cfg := Config{NumBlocks: 4096, BlockSize: 64, Seed: 5}
		if withCrypto {
			cfg.Engine = testEngine()
		}
		o, _, _ := newTestORAM(t, cfg)
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
		for i := 0; i < 3*int(cfg.NumBlocks)/k; i++ {
			step()
		}
		if n := testing.AllocsPerRun(64, step); n != 0 {
			t.Errorf("crypto=%v: a %d-id batch + write-backs allocates %.1f times, want 0", withCrypto, k, n)
		}
	}
}
