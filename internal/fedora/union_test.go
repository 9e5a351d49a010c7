package fedora

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/obliv"
)

// TestUnionChargesThePapersScan: the controller sorts, but its DRAM model
// is still charged the paper's Θ(K²) linear scan, so modelled time and the
// device counters are the design's, not this implementation's. The stats
// below are the DRAM device's after the golden test's six seeded rounds,
// recorded on commit 9a3b5ff, when the scan was also what ran.
func TestUnionChargesThePapersScan(t *testing.T) {
	cfg := Config{
		NumRows: 1024, Dim: 4, Epsilon: 1, Seed: 77,
		MaxClientsPerRound: 16, MaxFeaturesPerClient: 16, LearningRate: 0.5,
		Encrypt: true, HasScratchpad: true, BucketBytes: 512, EvictPeriod: 16,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, reqs := range randomWorkload(5, 6, 16, 12, cfg.NumRows, cfg.Dim) {
		goldenRound(t, c, reqs)
	}
	want := device.Stats{
		Reads: 0xa800, Writes: 0xa7b9, BytesRead: 0x35109ba, BytesWritten: 0x2e2dd3d,
		BusyTime: time.Duration(12606908),
	}
	if got := c.DRAMStats(); got != want {
		t.Errorf("DRAM stats after six rounds = %+v, want %+v (recorded on 9a3b5ff)", got, want)
	}

	before := c.DRAMStats()
	_, _, d := c.parts[0].union(make([]uint64, 100))
	after := c.DRAMStats()
	if got, want := after.BytesRead-before.BytesRead, uint64(obliv.UnionScanCost(100)*8); got != want || d <= 0 {
		t.Errorf("a 100-request union charged %d bytes (%v), want UnionScanCost(100)*8 = %d", got, d, want)
	}
}

// TestControllerUnionIsTheScanWithoutAllocating: through the controller's
// scratch a chunk-sized union returns the scan's ids in the scan's order
// and, once the arrays have grown, allocates nothing.
func TestControllerUnionIsTheScanWithoutAllocating(t *testing.T) {
	c := newController(t, Config{Seed: 3})
	rng := rand.New(rand.NewSource(3))
	chunk := make([]uint64, 4096)
	for i := range chunk {
		chunk[i] = uint64(rng.Intn(3000))
		if i%50 == 0 {
			chunk[i] = DummyRequest
		}
	}
	want := obliv.UnionScan(chunk)
	ids, size, _ := c.parts[0].union(chunk)
	if size != want.Size || !slices.Equal(ids, want.IDs[:want.Size]) {
		t.Fatalf("controller union: %d ids, scan %d; order equal: %v", size, want.Size, slices.Equal(ids, want.IDs[:want.Size]))
	}
	if n := testing.AllocsPerRun(5, func() { c.parts[0].union(chunk) }); n != 0 {
		t.Errorf("steady-state union allocates %.1f times per chunk, want 0", n)
	}
}
