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
	calls     [][]uint64 // the LOCAL rows of each batch call, in call order
	finished  bool
}

// batch runs one fake batch call: it walks the listed rows in order,
// fails at a row scripted by failOn/failOnRow, and hands each other row
// to do.
func (r *fakeRound) batch(op string, n int, idx []int, local func(i int) uint64, do func(i int, row uint64)) (int, error) {
	r.p.flight.enter()
	defer r.p.flight.leave()
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx != nil {
		n = len(idx)
	}
	var rows []uint64
	defer func() { r.calls = append(r.calls, rows) }()
	for k := 0; k < n; k++ {
		i := At(idx, k)
		row := local(i)
		rows = append(rows, row)
		if err := r.p.opErr(op, row); err != nil {
			return k, err
		}
		do(i, row)
	}
	return n, nil
}

func (r *fakeRound) ServeEntries(rows []uint64, idx []int, base uint64, out []EntryResult) (int, error) {
	return r.batch("serve", len(rows), idx, func(i int) uint64 { return rows[i] - base }, func(i int, row uint64) {
		r.served = append(r.served, row)
		out[i] = EntryResult{Row: rows[i], Entry: []float32{float32(r.p.id), float32(row)}, OK: true}
	})
}

func (r *fakeRound) SubmitGradients(grads []RowGradient, idx []int, base uint64, out []bool) (int, error) {
	return r.batch("submit", len(grads), idx, func(i int) uint64 { return grads[i].Row - base }, func(i int, row uint64) {
		r.submitted = append(r.submitted, row)
		out[i] = true
	})
}

func (r *fakeRound) SubmitAggregates(aggs []RowAggregate, idx []int, base uint64, out []bool) (int, error) {
	return r.batch("submit", len(aggs), idx, func(i int) uint64 { return aggs[i].Row - base }, func(i int, row uint64) {
		r.submitted = append(r.submitted, row)
		out[i] = true
	})
}

// flight counts the batch calls in flight across an engine's fakes and
// the most ever seen at once; each call lasts at least hold.
type flight struct {
	hold     time.Duration
	mu       sync.Mutex
	cur, max int
}

func (f *flight) enter() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.cur++
	f.max = max(f.max, f.cur)
	f.mu.Unlock()
	time.Sleep(f.hold)
}

func (f *flight) leave() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.cur--
	f.mu.Unlock()
}

func (r *fakeRound) Finish() (RoundStats, error) {
	if err := r.p.opErr("finish", 0); err != nil {
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
	flight   *flight // shared by an engine's fakes; nil counts nothing

	mu       sync.Mutex
	reqs     [][]uint64 // last BeginRound input
	rounds   []*fakeRound
	state    []byte             // snapshot payload
	aborts   int                // Abort() call count
	failOps  map[string]error   // scripted per-op round errors ("serve"/"submit"/"finish")
	failRows map[string]failure // scripted errors at one LOCAL row of an op
}

type failure struct {
	row uint64
	err error
}

// failOn scripts an error for every row of a round operation; opErr
// reads it back.
func (p *fakePart) failOn(op string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failOps == nil {
		p.failOps = make(map[string]error)
	}
	p.failOps[op] = err
}

// failOnRow scripts an error for one LOCAL row of a batch operation.
func (p *fakePart) failOnRow(op string, row uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failRows == nil {
		p.failRows = make(map[string]failure)
	}
	p.failRows[op] = failure{row, err}
}

func (p *fakePart) opErr(op string, row uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.failRows[op]; ok && f.row == row {
		return f.err
	}
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
	fl := &flight{}
	for i := range parts {
		fakes[i] = &fakePart{id: i, flight: fl}
		parts[i] = fakes[i]
	}
	e, err := NewEngine(Config{Shards: shards, NumRows: numRows, Workers: workers, Dummy: testDummy}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return e, fakes
}

// serve runs one batched download of rows on an engine round.
func serve(r *Round, rows ...uint64) ([]EntryResult, error) {
	out := make([]EntryResult, len(rows))
	_, err := r.ServeEntries(rows, nil, 0, out)
	return out, err
}

// submit runs one batched gradient upload for rows on an engine round.
func submit(r *Round, rows ...uint64) ([]bool, error) {
	grads := make([]RowGradient, len(rows))
	for i, row := range rows {
		grads[i] = RowGradient{Row: row, Grad: []float32{1}, Samples: 1}
	}
	out := make([]bool, len(rows))
	_, err := r.SubmitGradients(grads, nil, 0, out)
	return out, err
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
	res, err := serve(r, 4) // shard 1 (base 3) → local 1
	if err != nil || !res[0].OK {
		t.Fatalf("ServeEntries: %v ok=%v", err, res[0].OK)
	}
	if entry := res[0].Entry; entry[0] != 1 || entry[1] != 1 {
		t.Errorf("ServeEntries(4) hit shard/local %v, want [1 1]", entry)
	}
	if _, err := submit(r, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := fakes[3].rounds[0].submitted; len(got) != 1 || got[0] != 1 {
		t.Errorf("SubmitGradients(9) reached shard 3 locals %v, want [1]", got)
	}
	if _, err := serve(r, 0); !errors.Is(err, ErrRoundFinished) {
		t.Errorf("ServeEntries after Finish: %v, want ErrRoundFinished", err)
	}
}

// TestStatsMerge verifies count and modelled-time summing, the
// Prefetched flag and the parallel-composition round ε.
func TestStatsMerge(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 3, 0)
	fakes[0].stats = RoundStats{K: 5, KUnion: 4, KSampled: 4, Chunks: 1, RoundEpsilon: 1,
		ReadTime: 10 * time.Millisecond, Prefetched: true}
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
	if !st.Prefetched {
		t.Error("Prefetched lost in the merge")
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

// TestConcurrentServeAcrossShards hammers ServeEntries/SubmitGradients from
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
				if _, err := serve(r, row); err != nil {
					t.Errorf("ServeEntries(%d): %v", row, err)
					return
				}
				if _, err := submit(r, row); err != nil {
					t.Errorf("SubmitGradients(%d): %v", row, err)
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

// TestBatchSplitByShard: a batch reaches each touched shard as ONE
// partition call listing that shard's rows in request order, results land
// at their batch index, a one-shard batch passes straight through, and an
// index list with a base offset selects and shifts rows the same way.
func TestBatchSplitByShard(t *testing.T) {
	e, fakes := newFakeEngine(t, 10, 4, 0) // bases 0,3,6,8
	r, err := e.BeginRound([][]uint64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	rows := []uint64{9, 0, 4, 2, 8, 3, 0}
	res, err := serve(r, rows...)
	if err != nil {
		t.Fatal(err)
	}
	wantCalls := []string{"[[0 2 0]]", "[[1 0]]", "[]", "[[1 0]]"}
	for s, fake := range fakes {
		if got := fmt.Sprint(fake.rounds[0].calls); got != wantCalls[s] {
			t.Errorf("shard %d calls = %s, want %s", s, got, wantCalls[s])
		}
	}
	for i, row := range rows {
		s := ShardOf(10, 4, row)
		want := EntryResult{Row: row, Entry: []float32{float32(s), float32(row - Base(10, 4, s))}, OK: true}
		if fmt.Sprint(res[i]) != fmt.Sprint(want) {
			t.Errorf("result %d = %+v, want %+v", i, res[i], want)
		}
	}
	if _, err := submit(r, 1, 2); err != nil { // shard 0 only
		t.Fatal(err)
	}
	if got := fmt.Sprint(fakes[0].rounds[0].calls[1:]); got != "[[1 2]]" {
		t.Errorf("one-shard batch calls = %s, want [[1 2]]", got)
	}
	out := make([]EntryResult, 3)
	if n, err := r.ServeEntries([]uint64{109, 7, 104}, []int{2, 0}, 100, out); n != 2 || err != nil {
		t.Fatalf("indexed batch: n=%d err=%v", n, err)
	}
	if out[1].Row != 0 || out[0].Entry[0] != 3 || out[2].Entry[0] != 1 {
		t.Errorf("indexed batch results = %+v", out)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchTriggerMidGroup: a quarantine trigger at the third row of one
// shard's group quarantines that shard once; the rows it completed keep
// their results, the failing row and the rest of its group are
// unavailable, the other shard is unaffected, and the batch succeeds.
func TestBatchTriggerMidGroup(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 2)
	r, err := e.BeginRound(requests(10, 60))
	if err != nil {
		t.Fatal(err)
	}
	fakes[1].failOnRow("serve", 30, injectedErr) // row 80
	res, err := serve(r, 60, 10, 70, 80, 20, 90)
	if err != nil {
		t.Fatalf("batch error = %v, want nil", err)
	}
	for i, want := range []string{"ok", "ok", "ok", "unavailable", "ok", "unavailable"} {
		got := "ok"
		if res[i].Unavailable {
			got = "unavailable"
		} else if !res[i].OK {
			got = "miss"
		}
		if got != want {
			t.Errorf("row %d: %s, want %s", res[i].Row, got, want)
		}
	}
	if rep := e.Health(); rep.Quarantines != 1 || !rep.Shards[1].Quarantined {
		t.Fatalf("health = %+v, want shard 1 quarantined once", rep)
	}
	ok, err := submit(r, 60, 10)
	if err != nil || ok[0] || !ok[1] {
		t.Fatalf("submit after quarantine = %v, %v", ok, err)
	}
	if n := len(fakes[1].rounds[0].calls); n != 1 {
		t.Errorf("quarantined shard got %d calls, want 1", n)
	}
	if rep := e.Health(); rep.Quarantines != 1 {
		t.Errorf("quarantines = %d after more traffic, want 1", rep.Quarantines)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchErrorLowestIndex: non-trigger failures on two shards fail the
// batch with the error of the lower batch index, whichever shard it is
// on; an out-of-range row fails at its own index the same way. Either
// way every row listed before the failing one was applied, including
// when all the in-range rows sit on one shard.
func TestBatchErrorLowestIndex(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 2)
	r, err := e.BeginRound(requests(10, 60))
	if err != nil {
		t.Fatal(err)
	}
	errA, errB := errors.New("shard 0 bug"), errors.New("shard 1 bug")
	fakes[0].failOnRow("submit", 20, errA)
	fakes[1].failOnRow("submit", 10, errB) // row 60
	for _, c := range []struct {
		rows []uint64
		want error
		n    int
	}{
		{[]uint64{10, 60, 20, 70}, errB, 1},
		{[]uint64{10, 20, 60, 70}, errA, 1},
		{[]uint64{70, 200, 20}, nil, 1},
		{[]uint64{10, 20, 200, 70}, errA, 1},
		{[]uint64{70, 90, 200}, nil, 2}, // every in-range row on shard 1
		{[]uint64{30, 200, 40}, nil, 1}, // ... on shard 0
	} {
		grads := make([]RowGradient, len(c.rows))
		for i, row := range c.rows {
			grads[i] = RowGradient{Row: row}
		}
		out := make([]bool, len(c.rows))
		n, err := r.SubmitGradients(grads, nil, 0, out)
		for p := 0; p < min(n, len(out)); p++ {
			if !out[p] {
				t.Errorf("rows %v: row %d, listed before the failure, was not applied", c.rows, c.rows[p])
			}
		}
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("rows %v: err = %v, want out of range", c.rows, err)
			}
		} else if err != c.want {
			t.Errorf("rows %v: err = %v, want %v", c.rows, err, c.want)
		}
		if n != c.n {
			t.Errorf("rows %v: n = %d, want %d", c.rows, n, c.n)
		}
	}
	if rep := e.Health(); rep.Status != StatusHealthy {
		t.Errorf("non-trigger errors changed health to %v", rep.Status)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchHonorsWorkers: Config.Workers bounds the pool a batch's shard
// groups run on; with 1 worker the groups never overlap.
func TestBatchHonorsWorkers(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 4, 1)
	fakes[0].flight.hold = time.Millisecond
	r, err := e.BeginRound(requests(0, 30, 60, 90))
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if _, err := serve(r, 0, 30, 60, 90); err != nil {
			t.Fatal(err)
		}
		if _, err := submit(r, 90, 60, 30, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := fakes[0].flight.max; got != 1 {
		t.Errorf("Workers 1: %d batch calls in flight at once, want 1", got)
	}
}
