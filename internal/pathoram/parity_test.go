package pathoram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/tee"
	"repro/internal/tree"
)

// SHA-256 of the ORAM and device snapshots after mixedOps, recorded on
// commit 9a3b5ff — write counters in a map[uint32]uint64, path blocks
// indexed in the stash, position overlay and device pages in maps. The
// paged tables and the staged path must leave every byte where it was.
// The sealed device hash was re-recorded when the engine moved to
// AES-GCM: the ciphertext moved, the ORAM snapshot beside it did not.
var paritySHA = map[bool][2]string{
	false: {"d7015a335a3ee3006b91008864df9f7f83335aad8434f5100a9b570fd4d3519b", "dba77762c99f9f304f8b919385981e35de9a42d3812f15d2838258b067c8e20a"},
	true:  {"7e8ab3ff339b206c47424fee145f7b7eb1ef53692887835ed98e2fa1b5f4a81a", "0721f3b2109f370ebd014f4203a87a6bf4a14eb4cf394558ec0471a7a2e6dd68"},
}

// mixedOps drives a seeded mix of reads, writes and in-place updates and
// returns every payload a read returned.
func mixedOps(t *testing.T, o *ORAM, rng *rand.Rand, numBlocks, blockSize, steps int) [][]byte {
	t.Helper()
	var reads [][]byte
	for i := 0; i < steps; i++ {
		id := uint64(rng.Intn(numBlocks))
		switch rng.Intn(3) {
		case 0:
			got, _, err := o.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			reads = append(reads, got)
		case 1:
			data := make([]byte, blockSize)
			rng.Read(data)
			if _, err := o.Write(id, data); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := o.Update(id, func(data []byte) { data[i%blockSize] ^= byte(i) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	return reads
}

func TestSnapshotParity(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		cfg := Config{NumBlocks: 200, BlockSize: 24, Amplification: 4, Seed: 15}
		if sealed {
			cfg.Engine = testEngine()
		}
		o, dev := newTestORAM(t, cfg)
		mixedOps(t, o, rand.New(rand.NewSource(15)), 200, 24, 1500)
		snap, err := o.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		devSnap, err := dev.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range [][]byte{snap, devSnap} {
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != paritySHA[sealed][i] {
				t.Fatalf("sealed=%v: snapshot %d sha256 = %s, want %s",
					sealed, i, got, paritySHA[sealed][i])
			}
		}

		// The bytes an older build wrote restore to an ORAM that goes on
		// exactly as the live one does.
		r, rdev := newTestORAM(t, cfg)
		if err := rdev.Restore(devSnap); err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(snap); err != nil {
			t.Fatal(err)
		}
		want := mixedOps(t, o, rand.New(rand.NewSource(16)), 200, 24, 300)
		got := mixedOps(t, r, rand.New(rand.NewSource(16)), 200, 24, 300)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("sealed=%v: read %d after restore differs", sealed, i)
			}
		}
		a, _ := o.Snapshot()
		b, _ := r.Snapshot()
		if !bytes.Equal(a, b) {
			t.Errorf("sealed=%v: restored ORAM's state diverged from the live one", sealed)
		}
	}
}

// failureSHA pins the state an access leaves behind when the device
// fails mid-path — on a read (the level-L/2 bucket of the path being
// read) and on a write (the bucket L/2 levels up from the leaf) — by
// sealed: the ORAM snapshot (stash index and high-water mark, position
// map, counters, RNG, event counters), the device image and the
// engine's work counters. Recorded before the access became one
// read–plan–write pass.
var failureSHA = map[bool]map[string]string{
	false: {
		"read":  "e50e6cf021ceaec55a550677b47a58fb31aa2363eafedda06ae7f91bdf46691d",
		"write": "0bb409014eb27d9f967decd52ba90bd787ad7734ac591b8235ec48a5852e5385",
	},
	true: {
		"read":  "979d14018d5b737545616a804455ebc1aaa66b561bc97cf42e40627e187dba0b",
		"write": "aa9f2e6b212eb0d0c931d0ef167ae859b2cbe592305a2aa5b5761c586b92e1d8",
	},
}

func TestFailureStateParity(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		for _, phase := range []string{"read", "write"} {
			cfg := Config{NumBlocks: 200, BlockSize: 24, Amplification: 4, Seed: 15}
			var eng *tee.Engine
			if sealed {
				eng = testEngine()
				cfg.Engine = eng
			}
			cfg.setDefaults()
			_, levels := tree.Geometry(cfg.NumBlocks, cfg.BucketSlots, cfg.Amplification)
			// Every access is levels reads then levels writes; the device
			// fails inside access 700.
			successes := 700*2*levels + levels/2
			if phase == "write" {
				successes += levels
			}
			sim := device.NewDRAM(1 << 30)
			o, err := New(cfg, device.NewFaulty(sim, successes))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(15))
			var opErr error
			for i := 0; opErr == nil; i++ {
				if i > 700 {
					t.Fatalf("sealed=%v %s: the device never failed", sealed, phase)
				}
				id := uint64(rng.Intn(200))
				switch rng.Intn(3) {
				case 0:
					_, _, opErr = o.Read(id)
				case 1:
					data := make([]byte, 24)
					rng.Read(data)
					_, opErr = o.Write(id, data)
				case 2:
					_, opErr = o.Update(id, func(data []byte) { data[i%24] ^= byte(i) })
				}
			}
			if !errors.Is(opErr, device.ErrInjected) {
				t.Fatalf("sealed=%v %s: err %v, want device.ErrInjected", sealed, phase, opErr)
			}
			if o.StashLen() == 0 {
				t.Errorf("sealed=%v %s: the failed access left the stash empty", sealed, phase)
			}
			snap, err := o.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			devSnap, err := sim.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, b := range [][]byte{snap, devSnap} {
				fmt.Fprintf(h, "%d:", len(b))
				h.Write(b)
			}
			if eng != nil {
				fmt.Fprintf(h, "%+v", eng.Stats())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != failureSHA[sealed][phase] {
				t.Errorf("sealed=%v %s: sha256 = %s, want %s", sealed, phase, got, failureSHA[sealed][phase])
			}
		}
	}
}
