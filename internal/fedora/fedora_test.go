package fedora

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/fdp"
)

func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	if cfg.NumRows == 0 {
		cfg.NumRows = 1024
	}
	if cfg.Dim == 0 {
		cfg.Dim = 4
	}
	if cfg.MaxClientsPerRound == 0 {
		cfg.MaxClientsPerRound = 16
	}
	if cfg.MaxFeaturesPerClient == 0 {
		cfg.MaxFeaturesPerClient = 16
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runRound performs one full round where each client submits a gradient
// of all ones with one sample for each of its rows.
func runRound(t *testing.T, c *Controller, reqs [][]uint64) RoundStats {
	t.Helper()
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return serveAndFinish(t, r, reqs)
}

// serveAndFinish is runRound from the open round on.
func serveAndFinish(t *testing.T, r *Round, reqs [][]uint64) RoundStats {
	t.Helper()
	for _, rows := range reqs {
		for _, row := range rows {
			if row == DummyRequest {
				continue
			}
			if _, _, err := r.ServeEntry(row); err != nil {
				t.Fatal(err)
			}
			grad := make([]float32, 4)
			for i := range grad {
				grad[i] = 1
			}
			if _, err := r.SubmitGradient(row, grad, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRoundAppliesUpdates(t *testing.T) {
	c := newController(t, Config{Epsilon: fdp.EpsilonInfinity, Seed: 1})
	reqs := [][]uint64{{5, 9}, {9, 12}}
	st := runRound(t, c, reqs)
	if st.K != 4 || st.KUnion != 3 || st.KSampled != 3 {
		t.Errorf("stats = %+v", st)
	}
	// ε=∞ loses nothing; all three rows got gradient 1 → value −1.
	r, err := c.BeginRound([][]uint64{{5, 9, 12}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []uint64{5, 9, 12} {
		entry, ok, err := r.ServeEntry(row)
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", row, ok, err)
		}
		// Row 9 was requested by both clients but each submitted one
		// gradient of 1 with 1 sample → FedAvg mean 1 → −1 total.
		if math.Abs(float64(entry[0]+1)) > 1e-5 {
			t.Errorf("row %d entry = %v, want -1", row, entry[0])
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesPlainReferenceServer(t *testing.T) {
	// With ε=∞ (nothing lost) the FEDORA pipeline must produce exactly
	// the same table as a trivial non-private server applying FedAvg.
	c := newController(t, Config{Epsilon: fdp.EpsilonInfinity, Seed: 2, NumRows: 64})
	ref := map[uint64][]float32{}
	refGet := func(row uint64) []float32 {
		if v, ok := ref[row]; ok {
			return v
		}
		v := make([]float32, 4)
		ref[row] = v
		return v
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 10; round++ {
		// Random requests for 3 clients.
		reqs := make([][]uint64, 3)
		type upload struct {
			row  uint64
			grad []float32
			n    int
		}
		var uploads []upload
		for ci := range reqs {
			rows := map[uint64]bool{}
			for len(rows) < 4 {
				rows[uint64(rng.Intn(64))] = true
			}
			for row := range rows {
				reqs[ci] = append(reqs[ci], row)
				g := make([]float32, 4)
				for i := range g {
					g[i] = float32(rng.NormFloat64())
				}
				uploads = append(uploads, upload{row, g, 1 + rng.Intn(3)})
			}
		}
		r, err := c.BeginRound(reqs)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: FedAvg per row over this round's uploads.
		sums := map[uint64][]float32{}
		counts := map[uint64]float32{}
		for _, u := range uploads {
			if _, err := r.SubmitGradient(u.row, u.grad, u.n); err != nil {
				t.Fatal(err)
			}
			s, ok := sums[u.row]
			if !ok {
				s = make([]float32, 4)
				sums[u.row] = s
			}
			for i := range s {
				s[i] += u.grad[i] * float32(u.n)
			}
			counts[u.row] += float32(u.n)
		}
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		for row, s := range sums {
			e := refGet(row)
			for i := range e {
				e[i] -= s[i] / counts[row] // lr = 1
			}
		}
	}
	// Compare final state: request every reference row (split across
	// clients to respect the per-client feature cap).
	var reqs [][]uint64
	var cur []uint64
	for row := range ref {
		cur = append(cur, row)
		if len(cur) == 16 {
			reqs = append(reqs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		reqs = append(reqs, cur)
	}
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range ref {
		got, ok, err := r.ServeEntry(row)
		if err != nil || !ok {
			t.Fatalf("row %d: %v %v", row, ok, err)
		}
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("row %d dim %d: fedora %v vs reference %v", row, i, got[i], want[i])
			}
		}
	}
}

func TestEpsilonZeroReadsEverything(t *testing.T) {
	c := newController(t, Config{Epsilon: 0, Seed: 4})
	st := runRound(t, c, [][]uint64{{1, 2, 1, 2, 3}})
	// Perfect FDP: k = K always (Delta shape).
	if st.KSampled != st.K {
		t.Errorf("k = %d, want K = %d", st.KSampled, st.K)
	}
	if st.Dummy != st.K-st.KUnion {
		t.Errorf("dummy = %d, want %d", st.Dummy, st.K-st.KUnion)
	}
	if st.Lost != 0 {
		t.Errorf("lost = %d", st.Lost)
	}
}

func TestEpsilonInfinityReadsExactlyUnion(t *testing.T) {
	c := newController(t, Config{Epsilon: fdp.EpsilonInfinity, Seed: 5})
	st := runRound(t, c, [][]uint64{{1, 2, 1, 2, 3}})
	if st.KSampled != st.KUnion || st.Dummy != 0 || st.Lost != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPathORAMPlusAccessesPerRequest(t *testing.T) {
	c := newController(t, Config{Backend: BackendPathORAMPlus, Seed: 6})
	st := runRound(t, c, [][]uint64{{1, 2, 1, 2, 3}})
	if st.KSampled != st.K {
		t.Errorf("PathORAM+ k = %d, want K = %d", st.KSampled, st.K)
	}
	// Every access writes a full path: SSD writes must be heavy.
	if c.SSDDevice().Stats().BytesWritten == 0 {
		t.Error("PathORAM+ wrote nothing to SSD")
	}
}

func TestFedoraWritesFarLessThanPathORAMPlus(t *testing.T) {
	load := func(backend Backend) uint64 {
		c := newController(t, Config{Backend: backend, Epsilon: 0, Seed: 7, NumRows: 4096})
		for round := 0; round < 5; round++ {
			reqs := [][]uint64{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14, 15, 16}}
			runRound(t, c, reqs)
		}
		return c.SSDDevice().Stats().BytesWritten
	}
	fedora := load(BackendFedora)
	pathPlus := load(BackendPathORAMPlus)
	if fedora*5 > pathPlus {
		t.Errorf("FEDORA wrote %d vs PathORAM+ %d — expected ≥5× reduction", fedora, pathPlus)
	}
}

func TestDummyRequestsJoinKButNotUnion(t *testing.T) {
	c := newController(t, Config{Epsilon: fdp.EpsilonInfinity, Seed: 8})
	r, err := c.BeginRound([][]uint64{{1, DummyRequest, DummyRequest, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 4 || st.KUnion != 2 {
		t.Errorf("K=%d KUnion=%d", st.K, st.KUnion)
	}
}

func TestHideCountGroupPrivacy(t *testing.T) {
	c := newController(t, Config{Epsilon: 1.0, HideCount: true, MaxFeaturesPerClient: 100, Seed: 9})
	if got := c.EffectiveEpsilon(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("effective epsilon = %v, want 0.01", got)
	}
	c2 := newController(t, Config{Epsilon: 1.0, Seed: 9})
	if got := c2.EffectiveEpsilon(); got != 1.0 {
		t.Errorf("effective epsilon = %v, want 1.0", got)
	}
}

func TestLostEntriesReportedToCaller(t *testing.T) {
	// Tiny ε with uniform shape: k is near-uniform over [1, K], so with
	// many distinct rows some will be lost with overwhelming probability
	// across repeated rounds.
	c := newController(t, Config{Epsilon: 0.0001, Shape: fdp.Uniform{}, Seed: 10})
	// Override: ε=0 would force Delta; use a tiny positive ε instead.
	sawLost := false
	for round := 0; round < 20 && !sawLost; round++ {
		rows := make([]uint64, 14)
		for i := range rows {
			rows[i] = uint64(round*14 + i)
		}
		r, err := c.BeginRound([][]uint64{rows})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			_, ok, err := r.ServeEntry(row)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				sawLost = true
			}
		}
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawLost {
		t.Error("tiny epsilon never lost an entry across 20 rounds")
	}
}

func TestRoundInProgressRejected(t *testing.T) {
	c := newController(t, Config{Epsilon: 0, Seed: 11})
	r, err := c.BeginRound([][]uint64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginRound([][]uint64{{2}}); err != ErrRoundInProgress {
		t.Errorf("err = %v", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginRound([][]uint64{{2}}); err != nil {
		t.Errorf("round after finish failed: %v", err)
	}
}

func TestRequestValidation(t *testing.T) {
	c := newController(t, Config{Epsilon: 0, Seed: 12, MaxClientsPerRound: 2, MaxFeaturesPerClient: 2})
	if _, err := c.BeginRound([][]uint64{{1}, {2}, {3}}); err == nil {
		t.Error("too many clients accepted")
	}
	if _, err := c.BeginRound([][]uint64{{1, 2, 3}}); err == nil {
		t.Error("too many features accepted")
	}
	if _, err := c.BeginRound([][]uint64{{99999}}); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumRows: 0, Dim: 4},
		{NumRows: 8, Dim: 0},
		{NumRows: 8, Dim: 4, Epsilon: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestChunkingSplitsUnion(t *testing.T) {
	c := newController(t, Config{Epsilon: fdp.EpsilonInfinity, ChunkSize: 3, Seed: 13})
	// 6 requests, one duplicated across the chunk boundary.
	st := runRound(t, c, [][]uint64{{1, 2, 3, 1, 4, 5}})
	if st.Chunks != 2 {
		t.Errorf("chunks = %d, want 2", st.Chunks)
	}
	// Row 1 is unique within each chunk, so KUnion counts it twice and
	// the second fetch is a wasted duplicate access.
	if st.KUnion != 6 {
		t.Errorf("KUnion = %d, want 6 (per-chunk unions)", st.KUnion)
	}
	if st.CrossChunkDup != 1 {
		t.Errorf("CrossChunkDup = %d, want 1", st.CrossChunkDup)
	}
}

func TestPhantomRoundRunsAtScale(t *testing.T) {
	c := newController(t, Config{
		Epsilon: 1, Seed: 14, Phantom: true,
		NumRows: 1 << 20, Dim: 16,
		MaxClientsPerRound: 100, MaxFeaturesPerClient: 100,
	})
	rng := rand.New(rand.NewSource(15))
	reqs := make([][]uint64, 100)
	for ci := range reqs {
		for f := 0; f < 100; f++ {
			reqs[ci] = append(reqs[ci], uint64(rng.Intn(1<<20)))
		}
	}
	r, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 10000 {
		t.Errorf("K = %d", st.K)
	}
	if st.Total() <= 0 {
		t.Error("no modelled time accumulated")
	}
	if c.SSDDevice().Stats().BytesRead == 0 {
		t.Error("no SSD traffic charged in phantom mode")
	}
}

func TestBucketBytesAblation(t *testing.T) {
	small := newController(t, Config{Epsilon: 0, Seed: 16, Phantom: true, NumRows: 1 << 18, Dim: 16})
	big := newController(t, Config{Epsilon: 0, Seed: 16, Phantom: true, NumRows: 1 << 18, Dim: 16, BucketBytes: 16384})
	if small.parts[0].raw.BucketStoredSize() >= big.parts[0].raw.BucketStoredSize() {
		t.Errorf("bucket sizes %d vs %d", small.parts[0].raw.BucketStoredSize(), big.parts[0].raw.BucketStoredSize())
	}
	// Larger buckets allow a larger eviction period (Sec 6.6).
	if big.parts[0].raw.EvictPeriod() <= small.parts[0].raw.EvictPeriod() {
		t.Errorf("A: %d (16K) vs %d (4K)", big.parts[0].raw.EvictPeriod(), small.parts[0].raw.EvictPeriod())
	}
}

func TestBackendString(t *testing.T) {
	if BackendFedora.String() != "fedora" ||
		BackendPathORAMPlus.String() != "pathoram+" ||
		BackendDRAM.String() != "dram-based" {
		t.Error("backend names wrong")
	}
	if Backend(99).String() == "" {
		t.Error("unknown backend has empty name")
	}
}

func TestDRAMBackendProvisionsNoSSDWear(t *testing.T) {
	c := newController(t, Config{Backend: BackendDRAM, Epsilon: 0, Seed: 17})
	runRound(t, c, [][]uint64{{1, 2, 3}})
	// The "SSD" device of the DRAM backend is DRAM-profile: page size 1.
	if c.SSDDevice().PageSize() != 1 {
		t.Errorf("DRAM backend main device page size = %d", c.SSDDevice().PageSize())
	}
}

func TestEncryptedControllerRoundTrip(t *testing.T) {
	c := newController(t, Config{Epsilon: fdp.EpsilonInfinity, Encrypt: true, Seed: 18})
	runRound(t, c, [][]uint64{{3, 4}})
	r, err := c.BeginRound([][]uint64{{3}})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok, err := r.ServeEntry(3)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if entry[0] != -1 {
		t.Errorf("entry = %v", entry[0])
	}
}

func TestInitRowSeedsTable(t *testing.T) {
	c := newController(t, Config{
		Epsilon: fdp.EpsilonInfinity, Seed: 19,
		InitRow: func(row uint64) []float32 {
			return []float32{float32(row), 0, 0, 0}
		},
	})
	r, err := c.BeginRound([][]uint64{{7}})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok, err := r.ServeEntry(7)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if entry[0] != 7 {
		t.Errorf("initialized entry = %v", entry[0])
	}
}

func TestSelectionPolicies(t *testing.T) {
	for _, name := range []string{"first", "random", "popular", "unseen"} {
		policy, ok := SelectionPolicyByName(name)
		if !ok || policy.String() != name {
			t.Fatalf("policy %q round trip failed", name)
		}
		c := newController(t, Config{Epsilon: fdp.EpsilonInfinity, Seed: 30, Selection: policy})
		runRound(t, c, [][]uint64{{1, 2, 3}, {2, 3, 4}})
	}
	if _, ok := SelectionPolicyByName("nope"); ok {
		t.Error("unknown policy resolved")
	}
	if SelectionPolicy(99).String() != "unknown" {
		t.Error("unknown policy name")
	}
}

func TestSelectPopularPrefersHotRows(t *testing.T) {
	// Warm up popularity counts, then force k < k_union with a shape that
	// reads only some entries, and check the popular row survives.
	s := newSelector(SelectPopular, rand.New(rand.NewSource(1)))
	s.observe([]uint64{5, 5, 5, 9, 7})
	got := s.order([]uint64{9, 7, 5})
	if got[0] != 5 {
		t.Errorf("popular order = %v, want row 5 first", got)
	}
}

func TestSelectUnseenPrefersColdRows(t *testing.T) {
	s := newSelector(SelectUnseen, rand.New(rand.NewSource(2)))
	s.markRead(3)
	got := s.order([]uint64{3, 8, 4})
	if got[0] == 3 {
		t.Errorf("unseen order = %v, want read row 3 last", got)
	}
	if got[len(got)-1] != 3 {
		t.Errorf("unseen order = %v", got)
	}
}

func TestSelectRandomIsPermutation(t *testing.T) {
	s := newSelector(SelectRandom, rand.New(rand.NewSource(3)))
	in := []uint64{1, 2, 3, 4, 5}
	out := s.order(in)
	if len(out) != len(in) {
		t.Fatal("length changed")
	}
	seen := map[uint64]bool{}
	for _, v := range out {
		seen[v] = true
	}
	for _, v := range in {
		if !seen[v] {
			t.Fatalf("lost element %d", v)
		}
	}
	// Input order preserved (not mutated).
	if in[0] != 1 || in[4] != 5 {
		t.Error("input mutated")
	}
}

func TestRoundTrafficIndependentOfRequestedRows(t *testing.T) {
	// Controller-level obliviousness: at ε=0 (k=K always) two rounds with
	// the same K but entirely different row sets must generate identical
	// SSD traffic counts — the bus adversary learns only K.
	traffic := func(rows []uint64) device.Stats {
		c := newController(t, Config{Epsilon: 0, Seed: 60, NumRows: 4096})
		c.SSDDevice().ResetStats()
		runRound(t, c, [][]uint64{rows})
		return c.SSDDevice().Stats()
	}
	a := traffic([]uint64{1, 2, 3, 4})
	b := traffic([]uint64{4000, 4000, 17, 99}) // duplicates included
	if a.Reads != b.Reads || a.Writes != b.Writes ||
		a.BytesRead != b.BytesRead || a.BytesWritten != b.BytesWritten {
		t.Errorf("traffic depends on request contents:\n%+v\n%+v", a, b)
	}
}
