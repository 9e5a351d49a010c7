package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
)

const testDummy = ^uint64(0)

// fakeRound records the traffic one fake partition's round received.
type fakeRound struct {
	p  *fakePart
	mu sync.Mutex

	served    []uint64
	submitted []uint64
	finished  bool
}

func (r *fakeRound) ServeEntry(row uint64) ([]float32, bool, error) {
	if err := r.p.opErr("serve"); err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.served = append(r.served, row)
	return []float32{float32(r.p.id), float32(row)}, true, nil
}

func (r *fakeRound) SubmitGradient(row uint64, grad []float32, n int) (bool, error) {
	if err := r.p.opErr("submit"); err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submitted = append(r.submitted, row)
	return true, nil
}

func (r *fakeRound) SubmitAggregate(row uint64, sum []float32, count float32) (bool, error) {
	if err := r.p.opErr("submit"); err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submitted = append(r.submitted, row)
	return true, nil
}

func (r *fakeRound) Finish() (RoundStats, error) {
	if err := r.p.opErr("finish"); err != nil {
		return RoundStats{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = true
	return r.p.stats, nil
}

// fakePart is a scriptable Partition.
type fakePart struct {
	id       int
	stats    RoundStats
	beginErr error

	mu      sync.Mutex
	reqs    [][]uint64 // last BeginRound input
	rounds  []*fakeRound
	state   []byte           // snapshot payload
	aborts  int              // Abort() call count
	failOps map[string]error // scripted per-op round errors ("serve"/"submit"/"finish")
}

// failOn scripts an error for a round operation; opErr reads it back.
func (p *fakePart) failOn(op string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failOps == nil {
		p.failOps = make(map[string]error)
	}
	p.failOps[op] = err
}

func (p *fakePart) opErr(op string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failOps[op]
}

func (p *fakePart) BeginRound(requests [][]uint64) (PartitionRound, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.beginErr != nil {
		return nil, p.beginErr
	}
	p.reqs = requests
	r := &fakeRound{p: p}
	p.rounds = append(p.rounds, r)
	return r, nil
}

func (p *fakePart) Abort() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aborts++
}

func (p *fakePart) SnapshotSize() int { return len(p.state) }
func (p *fakePart) SnapshotTo(e *persist.Encoder) error {
	copy(e.Extend(len(p.state)), p.state)
	return nil
}
func (p *fakePart) Restore(b []byte) error {
	p.state = append([]byte(nil), b...)
	return nil
}

func newFakeEngine(t *testing.T, numRows uint64, shards, workers int) (*Engine, []*fakePart) {
	t.Helper()
	parts := make([]Partition, shards)
	fakes := make([]*fakePart, shards)
	for i := range parts {
		fakes[i] = &fakePart{id: i}
		parts[i] = fakes[i]
	}
	e, err := NewEngine(Config{Shards: shards, NumRows: numRows, Workers: workers, Dummy: testDummy}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return e, fakes
}

// TestPartitionGeometry checks that the balanced contiguous split is a
// true partition: sizes sum to N, every shard is non-empty, Base/Rows
// tile the row space, and ShardOf agrees with the tiling.
func TestPartitionGeometry(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 8, 16, 100, 1000, 16384} {
		for _, s := range []int{1, 2, 3, 4, 7, 8} {
			if uint64(s) > n {
				continue
			}
			var total uint64
			for i := 0; i < s; i++ {
				rows := Rows(n, s, i)
				if rows == 0 {
					t.Fatalf("N=%d S=%d: shard %d is empty", n, s, i)
				}
				base := Base(n, s, i)
				if i > 0 && base != Base(n, s, i-1)+Rows(n, s, i-1) {
					t.Fatalf("N=%d S=%d: shard %d base %d not contiguous", n, s, i, base)
				}
				for _, row := range []uint64{base, base + rows - 1} {
					if got := ShardOf(n, s, row); got != i {
						t.Fatalf("N=%d S=%d: ShardOf(%d) = %d, want %d", n, s, row, got, i)
					}
				}
				total += rows
			}
			if total != n {
				t.Fatalf("N=%d S=%d: shard sizes sum to %d", n, s, total)
			}
		}
	}
}

// TestSeedsDistinct guards the per-shard RNG stream derivation.
func TestSeedsDistinct(t *testing.T) {
	seen := map[int64]int{}
	for _, base := range []int64{0, 1, 42, -7} {
		for i := 0; i < 64; i++ {
			s := Seed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("Seed collision: base=%d shard=%d equals earlier %d", base, i, prev)
			}
			seen[s] = i
		}
	}
}

// TestRoutingTranslatesRows verifies global→local translation, client
// structure preservation, and deterministic dummy spreading.
func TestRoutingTranslatesRows(t *testing.T) {
	e, fakes := newFakeEngine(t, 10, 4, 0) // shards sized 3,3,2,2
	reqs := [][]uint64{
		{0, 3, 9, testDummy},
		{2, 2, 8},
		{testDummy, testDummy},
	}
	r, err := e.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	// Shard bases for N=10,S=4 are 0,3,6,8 (sizes 3,3,2,2). Real rows
	// translate to shard-local IDs; dummy (client ci, position j) routes
	// to shard (ci+j)%4: (0,3)→3, (2,0)→2, (2,1)→3.
	wantPerShard := []([][]uint64){
		{{0}, {2, 2}, nil},
		{{0}, nil, nil},
		{nil, nil, {testDummy}},
		{{1, testDummy}, {0}, {testDummy}},
	}
	for s, fake := range fakes {
		if len(fake.reqs) != len(reqs) {
			t.Fatalf("shard %d saw %d clients, want %d", s, len(fake.reqs), len(reqs))
		}
		for ci := range reqs {
			got := fmt.Sprint(fake.reqs[ci])
			want := fmt.Sprint(wantPerShard[s][ci])
			if got != want {
				t.Errorf("shard %d client %d rows = %s, want %s", s, ci, got, want)
			}
		}
	}
}

// TestRoutingRejectsOutOfRange verifies the range check happens before
// any shard begins.
func TestRoutingRejectsOutOfRange(t *testing.T) {
	e, fakes := newFakeEngine(t, 10, 2, 0)
	if _, err := e.BeginRound([][]uint64{{10}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	for s, fake := range fakes {
		if len(fake.rounds) != 0 {
			t.Errorf("shard %d began a round despite routing failure", s)
		}
	}
	// The engine must accept a fresh round after the failure.
	r, err := e.BeginRound([][]uint64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestServeAndSubmitRouted verifies steps ④/⑥ reach the owning shard
// with local row IDs.
func TestServeAndSubmitRouted(t *testing.T) {
	e, fakes := newFakeEngine(t, 10, 4, 2)
	r, err := e.BeginRound([][]uint64{{0, 4, 9}})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok, err := r.ServeEntry(4) // shard 1 (base 3) → local 1
	if err != nil || !ok {
		t.Fatalf("ServeEntry: %v ok=%v", err, ok)
	}
	if entry[0] != 1 || entry[1] != 1 {
		t.Errorf("ServeEntry(4) hit shard/local %v, want [1 1]", entry)
	}
	if _, err := r.SubmitGradient(9, []float32{1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := fakes[3].rounds[0].submitted; len(got) != 1 || got[0] != 1 {
		t.Errorf("SubmitGradient(9) reached shard 3 locals %v, want [1]", got)
	}
	if _, _, err := r.ServeEntry(0); !errors.Is(err, ErrRoundFinished) {
		t.Errorf("ServeEntry after Finish: %v, want ErrRoundFinished", err)
	}
}

// TestStatsMerge verifies count summing, wall-clock attribution and the
// parallel-composition round ε.
func TestStatsMerge(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 3, 0)
	fakes[0].stats = RoundStats{K: 5, KUnion: 4, KSampled: 4, Chunks: 1, RoundEpsilon: 1,
		ReadTime: 10 * time.Millisecond, UnionWallTime: time.Millisecond}
	fakes[1].stats = RoundStats{K: 7, KUnion: 6, KSampled: 8, Dummy: 2, Chunks: 2, RoundEpsilon: 0.5,
		ReadTime: 20 * time.Millisecond}
	fakes[2].stats = RoundStats{} // idle shard: no chunks, must not affect ε
	r, err := e.BeginRound([][]uint64{{1, 40, 80}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 12 || st.KUnion != 10 || st.KSampled != 12 || st.Dummy != 2 || st.Chunks != 3 {
		t.Errorf("merged counts = %+v", st)
	}
	if st.RoundEpsilon != 1 {
		t.Errorf("RoundEpsilon = %v, want max(1, 0.5) = 1", st.RoundEpsilon)
	}
	if st.ReadTime != 30*time.Millisecond {
		t.Errorf("ReadTime = %v, want summed 30ms", st.ReadTime)
	}
	if len(st.PerShard) != 3 || st.PerShard[1].KSampled != 8 || st.PerShard[1].RoundEpsilon != 0.5 {
		t.Errorf("PerShard breakdown = %+v", st.PerShard)
	}
	var rows uint64
	for _, ss := range st.PerShard {
		rows += ss.Rows
	}
	if rows != 100 {
		t.Errorf("PerShard rows sum to %d, want 100", rows)
	}
}

// TestBeginErrorClosesStartedShards verifies that a failing shard does
// not leave its siblings wedged in an open round.
func TestBeginErrorClosesStartedShards(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 4, 0)
	boom := errors.New("boom")
	fakes[2].beginErr = boom
	if _, err := e.BeginRound([][]uint64{{1, 30, 60, 90}}); !errors.Is(err, boom) {
		t.Fatalf("BeginRound error = %v, want boom", err)
	}
	for s, fake := range fakes {
		for _, round := range fake.rounds {
			if !round.finished {
				t.Errorf("shard %d round left open after sibling failure", s)
			}
		}
	}
	fakes[2].beginErr = nil
	if _, err := e.BeginRound([][]uint64{{1}}); err != nil {
		t.Fatalf("engine wedged after shard failure: %v", err)
	}
}

// TestSecondBeginRejected covers the single-round invariant.
func TestSecondBeginRejected(t *testing.T) {
	e, _ := newFakeEngine(t, 10, 2, 0)
	r, err := e.BeginRound([][]uint64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BeginRound([][]uint64{{2}}); !errors.Is(err, ErrRoundInProgress) {
		t.Fatalf("second BeginRound = %v, want ErrRoundInProgress", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); !errors.Is(err, ErrRoundFinished) {
		t.Fatalf("double Finish = %v, want ErrRoundFinished", err)
	}
}

// TestConcurrentServeAcrossShards hammers ServeEntry/SubmitGradient from
// many goroutines under -race (the make check gate runs this package
// with the race detector).
func TestConcurrentServeAcrossShards(t *testing.T) {
	const n = 64
	e, _ := newFakeEngine(t, n, 8, 0)
	reqs := make([][]uint64, 4)
	for ci := range reqs {
		for row := uint64(0); row < n; row++ {
			reqs[ci] = append(reqs[ci], row)
		}
	}
	r, err := e.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for row := uint64(0); row < n; row++ {
				if _, _, err := r.ServeEntry(row); err != nil {
					t.Errorf("ServeEntry(%d): %v", row, err)
					return
				}
				if _, err := r.SubmitGradient(row, []float32{1}, 1); err != nil {
					t.Errorf("SubmitGradient(%d): %v", row, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestNewEngineValidation covers the constructor's geometry checks.
func TestNewEngineValidation(t *testing.T) {
	mk := func(n int) []Partition {
		parts := make([]Partition, n)
		for i := range parts {
			parts[i] = &fakePart{id: i}
		}
		return parts
	}
	cases := []struct {
		cfg   Config
		parts []Partition
		want  string
	}{
		{Config{Shards: 0, NumRows: 10}, mk(0), "Shards"},
		{Config{Shards: 2, NumRows: 0}, mk(2), "NumRows"},
		{Config{Shards: 11, NumRows: 10}, mk(11), "exceed"},
		{Config{Shards: 2, NumRows: 10}, mk(3), "partitions"},
	}
	for _, c := range cases {
		if _, err := NewEngine(c.cfg, c.parts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewEngine(%+v) error = %v, want mention of %q", c.cfg, err, c.want)
		}
	}
}
