package pathoram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
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
