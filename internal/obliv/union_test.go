package obliv

import (
	"math/rand"
	"slices"
	"testing"
)

// randomRequests draws k requests from a domain small enough to repeat,
// with about one in eight an InvalidID pad.
func randomRequests(rng *rand.Rand, k int) []uint64 {
	reqs := make([]uint64, k)
	domain := 1 + rng.Intn(2*k+1)
	for i := range reqs {
		if rng.Intn(8) == 0 {
			reqs[i] = InvalidID
		} else {
			reqs[i] = uint64(rng.Intn(domain))
		}
	}
	return reqs
}

func checkUnionMatchesScan(t *testing.T, name string, reqs []uint64) {
	t.Helper()
	got, want := Union(reqs), UnionScan(reqs)
	if got.Size != want.Size || !slices.Equal(got.IDs, want.IDs) {
		t.Fatalf("%s (K=%d): Union size %d, scan size %d; slots differ: %v",
			name, len(reqs), got.Size, want.Size, !slices.Equal(got.IDs, want.IDs))
	}
}

// TestUnionMatchesScan: the sorting-network union equals the paper's
// linear scan slot for slot — same ids, same first-seen order, same
// InvalidID tail, same size — which is what lets it replace the scan
// without moving what SelectFirst selects.
func TestUnionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for k := 0; k <= 300; k++ {
		checkUnionMatchesScan(t, "random", randomRequests(rng, k))
	}
	fill := func(k int, f func(i int) uint64) []uint64 {
		reqs := make([]uint64, k)
		for i := range reqs {
			reqs[i] = f(i)
		}
		return reqs
	}
	for _, k := range []int{1, 7, 64, 257} {
		checkUnionMatchesScan(t, "all distinct, descending", fill(k, func(i int) uint64 { return uint64(k - i) }))
		checkUnionMatchesScan(t, "all equal", fill(k, func(int) uint64 { return 42 }))
		checkUnionMatchesScan(t, "all InvalidID", fill(k, func(int) uint64 { return InvalidID }))
		checkUnionMatchesScan(t, "largest real id", fill(k, func(i int) uint64 { return InvalidID - 1 - uint64(i%3) }))
	}
	sizes := []int{1023, 1024, 1025, 4096}
	if !testing.Short() {
		sizes = append(sizes, 16384)
	}
	for _, k := range sizes {
		checkUnionMatchesScan(t, "large", randomRequests(rng, k))
	}
}

// compareExchanges records the index pairs of every compare-exchange a
// union of reqs performs.
func compareExchanges(reqs []uint64) [][2]int {
	var pairs [][2]int
	s := UnionScratch{trace: func(i, j int) { pairs = append(pairs, [2]int{i, j}) }}
	s.Union(reqs)
	return pairs
}

// TestUnionAccessPatternDependsOnLengthOnly: the network's sequence of
// compare-exchange index pairs — the only data-indexed memory traffic of
// the union; the marking pass and the copies are plain linear scans — is
// the same for any two secret inputs of one length, and changes with the
// length.
func TestUnionAccessPatternDependsOnLengthOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{0, 1, 2, 5, 64, 100, 257} {
		a := make([]uint64, k) // all one id
		b := randomRequests(rng, k)
		c := make([]uint64, k) // all distinct, already sorted
		for i := range c {
			c[i] = uint64(i)
		}
		want := compareExchanges(a)
		for _, other := range [][]uint64{b, c} {
			if got := compareExchanges(other); !slices.Equal(got, want) {
				t.Fatalf("K=%d: compare-exchange sequence depends on the ids", k)
			}
		}
	}
	// 5 and 8 share a padded length, hence a network; 8 and 9 do not.
	if !slices.Equal(compareExchanges(make([]uint64, 5)), compareExchanges(make([]uint64, 8))) {
		t.Error("K=5 and K=8 pad to one length but ran different networks")
	}
	if slices.Equal(compareExchanges(make([]uint64, 8)), compareExchanges(make([]uint64, 9))) {
		t.Error("K=8 and K=9 ran the same network")
	}
}

// TestUnionScratchSteadyStateAllocs: a caller that keeps its scratch
// unions a round's chunk without allocating.
func TestUnionScratchSteadyStateAllocs(t *testing.T) {
	reqs := randomRequests(rand.New(rand.NewSource(17)), 4096)
	want := UnionScan(reqs)
	var s UnionScratch
	s.Union(reqs)
	if n := testing.AllocsPerRun(10, func() { s.Union(reqs) }); n != 0 {
		t.Errorf("scratch-backed Union allocates %.1f times per call, want 0", n)
	}
	// A shorter chunk after a longer one reuses the arrays and leaves no
	// stale slot behind.
	short := reqs[:1000]
	got, wantShort := s.Union(short), UnionScan(short)
	if got.Size != wantShort.Size || !slices.Equal(got.IDs, wantShort.IDs) {
		t.Error("Union over reused scratch differs from the scan")
	}
	if got := s.Union(reqs); got.Size != want.Size || !slices.Equal(got.IDs, want.IDs) {
		t.Error("Union over regrown scratch differs from the scan")
	}
}
