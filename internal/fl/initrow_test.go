package fl

import "testing"

// TestInitRowAllocs: an embedding row's initialization allocates only
// the row it returns — its generator comes from a pool and is reseeded,
// not built. The race detector drops pooled items at random, so the
// count is only exact without it.
func TestInitRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	init := initRowFunc(7, 16)
	init(0)
	row := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() { row++; init(row) }); allocs != 1 {
		t.Fatalf("initializing a row allocates %v times, want 1 (the row)", allocs)
	}
}
