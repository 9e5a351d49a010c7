package bufferoram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/device"
)

// goldenShape is one benchmark-sized round of buffer-ORAM traffic.
type goldenShape struct {
	name     string
	capacity int
	agg      Aggregator
	loads    int // distinct rows loaded per round (half of them missed by requests)
	requests int // serves, and again aggregates, per round
	dummies  int // LoadDummy calls per round (k > k_union)
	rounds   int
	sha      string
}

// goldenShapes are the oram_serve round (4096 slots, FedAvg) and the
// train_local round (3200 slots, FedAdam: aggregator state rides in the
// block). The hashes were recorded before the Path ORAM access became
// one read–plan–write pass; that rewrite, and any later one, must leave
// every byte, counter and address where it was.
var goldenShapes = []goldenShape{
	{name: "oram_serve", capacity: 4096, agg: FedAvg{}, loads: 2048, requests: 4096, dummies: 512, rounds: 3,
		sha: "f4a514ac9490d9e492cd1c232f1717ac3d1ada59ddc9f2fe426ec6ecc39468aa"},
	{name: "train_local", capacity: 3200, agg: NewFedAdam(), loads: 1600, requests: 3200, dummies: 256, rounds: 3,
		sha: "3572d79635289e2c33163db4ceac8a693d5579f60c03ce67960a663334a1ca91"},
}

// TestGoldenBufferRounds drives seeded rounds of loads, serves (hits and
// misses), aggregates, dummy loads and unloads through a Recorder on a
// simulated DRAM, then hashes the buffer snapshot (mid-round, after the
// aggregates, and at the end), the device image, the
// Path ORAM and device counters and every recorded read and write
// address, in order.
func TestGoldenBufferRounds(t *testing.T) {
	for _, sh := range goldenShapes {
		t.Run(sh.name, func(t *testing.T) {
			if got := goldenRounds(t, sh); got != sh.sha {
				t.Errorf("sha256 = %s, want %s", got, sh.sha)
			}
		})
	}
}

func goldenRounds(t *testing.T, sh goldenShape) string {
	t.Helper()
	const dim = 16
	sim := device.NewDRAM(1 << 30)
	rec := device.NewRecorder(sim)
	b, err := New(Config{Capacity: sh.capacity, Dim: dim, Aggregator: sh.agg, LearningRate: 0.5, Seed: 7}, rec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	entry, grad := make([]float32, dim), make([]float32, dim)
	rows := make([]uint64, 0, sh.loads)
	h := sha256.New()
	for round := 0; round < sh.rounds; round++ {
		b.SetRound(uint64(round))
		rows = rows[:0]
		seen := map[uint64]bool{}
		for len(rows) < sh.loads {
			row := uint64(rng.Intn(1 << 20))
			if seen[row] {
				continue
			}
			seen[row] = true
			rows = append(rows, row)
			for i := range entry {
				entry[i] = rng.Float32() - 0.5
			}
			if _, err := b.Load(row, entry); err != nil {
				t.Fatal(err)
			}
		}
		// A request hits a loaded row three times in four; a miss is a
		// row never loaded this round and costs a dummy access.
		request := func() uint64 {
			if rng.Intn(4) > 0 {
				return rows[rng.Intn(len(rows))]
			}
			return 1<<20 + uint64(rng.Intn(1<<20))
		}
		for i := 0; i < sh.requests; i++ {
			if _, _, err := b.Serve(request()); err != nil && !errors.Is(err, ErrNotLoaded) {
				t.Fatal(err)
			}
		}
		for i := 0; i < sh.requests; i++ {
			for j := range grad {
				grad[j] = rng.Float32() - 0.5
			}
			if _, err := b.Aggregate(request(), grad, 1+rng.Intn(8)); err != nil && !errors.Is(err, ErrNotLoaded) {
				t.Fatal(err)
			}
		}
		// Mid-round, rows are loaded and the stash may hold leftovers.
		snap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		hashBlob(h, snap)
		for i := 0; i < sh.dummies; i++ {
			if _, err := b.LoadDummy(); err != nil {
				t.Fatal(err)
			}
		}
		for _, row := range rows {
			if _, _, err := b.Unload(row); err != nil {
				t.Fatal(err)
			}
		}
	}

	if b.oram.StashPeak() == 0 {
		t.Fatal("no access left a block in the stash; the rounds test no leftovers")
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	devSnap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	hashBlob(h, snap)
	hashBlob(h, devSnap)
	st := b.oram.Stats()
	ds := sim.Stats()
	hashU64s(h, []uint64{st.Accesses, st.BucketReads, st.BucketWrite, uint64(st.Time),
		ds.Reads, ds.Writes, ds.BytesRead, ds.BytesWritten, uint64(ds.BusyTime)})
	hashU64s(h, rec.ReadAddrs())
	hashU64s(h, rec.WriteAddrs())
	return hex.EncodeToString(h.Sum(nil))
}

// hashBlob writes b's length and then b, so adjacent blobs cannot trade bytes.
func hashBlob(h hash.Hash, b []byte) {
	hashU64s(h, []uint64{uint64(len(b))})
	h.Write(b)
}

func hashU64s(h hash.Hash, vs []uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(vs)))
	h.Write(buf[:])
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}
