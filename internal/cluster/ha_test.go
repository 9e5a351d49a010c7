package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/wire"
)

// haGlobal is the small raw-table study the HA tests drive: ε = ∞ so
// every requested row is served and the evolution is a pure function of
// the (requests, gradients) sequence — which is exactly what WAL replay
// must reproduce.
func haGlobal() fedora.Config {
	return fedora.Config{
		NumRows:              256,
		Dim:                  4,
		Epsilon:              fdp.EpsilonInfinity,
		MaxClientsPerRound:   8,
		MaxFeaturesPerClient: 8,
		LearningRate:         1,
		Seed:                 1,
		Shards:               2,
	}
}

// haMembers starts the two member processes of the 2-shard placement.
func haMembers(t *testing.T) []NodeSpec {
	t.Helper()
	global := haGlobal()
	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)
	return []NodeSpec{
		{URL: m0.URL, First: 0, Count: 1},
		{URL: m1.URL, First: 1, Count: 1},
	}
}

// haCoordinator builds a durable coordinator over the members and dir.
func haCoordinator(t *testing.T, nodes []NodeSpec, dir string, every int) *Coordinator {
	t.Helper()
	mgr, err := persist.OpenManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{
		Fedora:          haGlobal(),
		Nodes:           nodes,
		Client:          testClientConfig(),
		Manager:         mgr,
		CheckpointEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.StopProbes)
	return co
}

// startHA wraps the coordinator in an HA instance and starts it; it
// leads when the directory's leader lock is free. The lock is released
// when the test ends.
func startHA(t *testing.T, co *Coordinator) *HA {
	t.Helper()
	ha, err := NewHA(HAConfig{Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	if err := ha.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ha.release)
	return ha
}

// haRequests builds one round's request lists: 4 clients × 4 rows.
func haRequests(rng *rand.Rand) [][]uint64 {
	reqs := make([][]uint64, 4)
	for c := range reqs {
		reqs[c] = make([]uint64, 4)
		for j := range reqs[c] {
			reqs[c][j] = uint64(rng.Intn(int(haGlobal().NumRows)))
		}
	}
	return reqs
}

// haGrad is the deterministic per-row gradient the rounds submit.
func haGrad(row uint64) []float32 {
	g := make([]float32, haGlobal().Dim)
	for d := range g {
		g[d] = float32(row%7) - 3
	}
	return g
}

// haSubmit submits haGrad(row) for every row to r as one batch of kind:
// gradients of one sample, or aggregates of count one.
func haSubmit(r api.Round, kind api.FrameKind, rows []uint64) ([]bool, error) {
	if kind == api.FrameAggregates {
		aggs := make([]fedora.RowAggregate, len(rows))
		for i, row := range rows {
			aggs[i] = fedora.RowAggregate{Row: row, Sum: haGrad(row), Count: 1}
		}
		return r.SubmitAggregates(aggs)
	}
	grads := make([]fedora.RowGradient, len(rows))
	for i, row := range rows {
		grads[i] = fedora.RowGradient{Row: row, Grad: haGrad(row), Samples: 1}
	}
	return r.SubmitGradients(grads)
}

// haKinds are the two batch kinds a round applies; the WAL replay tests
// run once per kind.
var haKinds = []struct {
	name string
	kind api.FrameKind
}{{"gradients", api.FrameGradients}, {"aggregates", api.FrameAggregates}}

// driveHARounds runs n full rounds (begin → one batch of kind → finish)
// drawing requests from rng.
func driveHARounds(t *testing.T, co *Coordinator, kind api.FrameKind, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		reqs := haRequests(rng)
		r, err := co.BeginRound(reqs)
		if err != nil {
			t.Fatalf("begin round: %v", err)
		}
		if _, err := haSubmit(r, kind, slices.Concat(reqs...)); err != nil {
			t.Fatalf("submit batch: %v", err)
		}
		if _, err := r.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
}

// haPeeks samples the global table through the coordinator's evaluation
// backdoor.
func haPeeks(t *testing.T, co *Coordinator) [][]float32 {
	t.Helper()
	var out [][]float32
	for row := uint64(0); row < haGlobal().NumRows; row += 13 {
		v, err := co.PeekRow(row)
		if err != nil {
			t.Fatalf("peek row %d: %v", row, err)
		}
		out = append(out, v)
	}
	return out
}

// assertPeeksEqual compares two peek samples bit for bit.
func assertPeeksEqual(t *testing.T, want, got [][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("peek sample size %d != %d", len(got), len(want))
	}
	for i := range want {
		for d := range want[i] {
			if want[i][d] != got[i][d] {
				t.Fatalf("peek sample %d dim %d: got %v, want %v", i, d, got[i][d], want[i][d])
			}
		}
	}
}

// TestClaimEpochConcurrent is the split-brain root cause test: many
// claimants racing over one directory must claim pairwise-DISTINCT
// epochs. An unlocked read-modify-write would let two racers both read
// N and both claim N+1 — and since members accept equal epochs,
// neither would ever be fenced out of the shared round WAL.
func TestClaimEpochConcurrent(t *testing.T) {
	dir := t.TempDir()
	const claimants = 16
	epochs := make([]uint64, claimants)
	errs := make([]error, claimants)
	var wg sync.WaitGroup
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			epochs[i], errs[i] = claimEpoch(dir, 0)
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for i, e := range epochs {
		if errs[i] != nil {
			t.Fatalf("claimant %d: %v", i, errs[i])
		}
		if prev, dup := seen[e]; dup {
			t.Fatalf("claimants %d and %d both claimed epoch %d", prev, i, e)
		}
		seen[e] = i
		if e < 1 || e > claimants {
			t.Fatalf("claimant %d claimed epoch %d outside [1,%d]", i, e, claimants)
		}
	}
	if got, err := readEpochFile(dir); err != nil || got != claimants {
		t.Fatalf("epoch file after %d claims = %d (err %v), want %d", claimants, got, err, claimants)
	}
	// A floored claim (a standby that saw the peer advertise higher than
	// the file) still lands strictly above both.
	e, err := claimEpoch(dir, 100)
	if err != nil || e != 101 {
		t.Fatalf("floored claim = %d (err %v), want 101", e, err)
	}
}

// TestHAStopConcurrent: Stop must be safe to call from several
// goroutines (operator signal handler racing a deferred cleanup) — the
// old select-then-close pattern let two callers both observe the
// channel open and the second close panic.
func TestHAStopConcurrent(t *testing.T) {
	nodes := haMembers(t)
	dir := t.TempDir()
	co := haCoordinator(t, nodes, dir, 0)
	unlock, err := persist.TryLockFile(filepath.Join(dir, leaderLockName)) // keeps the instance standby
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	ha, err := NewHA(HAConfig{
		Coordinator: co,
		PeerURL:     "http://127.0.0.1:1", // dead peer
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ha.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ha.Stop()
		}()
	}
	wg.Wait()
	ha.Stop() // and again, sequentially
}

// TestProbeDelayBackoffAndJitter pins the probe schedule: base ±25%
// while healthy, doubling per consecutive failing pass, capped at 8×
// base — and always jittered so two coordinators sharing members never
// probe in lockstep.
func TestProbeDelayBackoffAndJitter(t *testing.T) {
	const base = 100 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	bounds := func(streak int, lo, hi time.Duration) {
		t.Helper()
		for i := 0; i < 200; i++ {
			d := probeDelay(base, streak, rng)
			if d < lo || d > hi {
				t.Fatalf("streak %d: delay %s outside [%s, %s]", streak, d, lo, hi)
			}
		}
	}
	bounds(0, 75*time.Millisecond, 125*time.Millisecond)  // healthy: base ±25%
	bounds(1, 150*time.Millisecond, 250*time.Millisecond) // one failing pass: 2× base
	bounds(3, 600*time.Millisecond, time.Second)          // capped at 8× base
	bounds(50, 600*time.Millisecond, time.Second)         // cap holds for any streak
}

// TestHAPrimaryWALReplayParity is the durability core: a coordinator
// crash between checkpoints loses nothing — the next incarnation
// restores the last checkpoint and REDRIVES the WAL's committed rounds,
// landing on bit-identical member state, one epoch higher.
func TestHAPrimaryWALReplayParity(t *testing.T) {
	for _, tc := range haKinds {
		t.Run(tc.name, func(t *testing.T) {
			nodes := haMembers(t)
			dir := t.TempDir()

			// First incarnation: checkpoint cadence far beyond the run, so every
			// round must come back from the WAL, not a checkpoint.
			co1 := haCoordinator(t, nodes, dir, 100)
			ha1 := startHA(t, co1)
			if got := co1.Epoch(); got != 1 {
				t.Fatalf("first incarnation epoch = %d, want 1", got)
			}
			driveHARounds(t, co1, tc.kind, rand.New(rand.NewSource(5)), 3)
			want := haPeeks(t, co1)
			co1.StopProbes() // the "crash": co1 stops driving the members
			ha1.release()    // and the kernel drops its leader lock

			// Second incarnation over the same directory and members.
			co2 := haCoordinator(t, nodes, dir, 100)
			startHA(t, co2)
			if got := co2.Epoch(); got != 2 {
				t.Fatalf("second incarnation epoch = %d, want 2", got)
			}
			if got := co2.Round(); got != 3 {
				t.Fatalf("recovered round = %d, want 3", got)
			}
			assertPeeksEqual(t, want, haPeeks(t, co2))

			// Recovery sealed its state: the WAL is empty again, so a third
			// incarnation would restore the fresh checkpoint, not replay.
			recs, torn, err := persist.ReadRawWALFile(co2.mgr.WALPath())
			if err != nil || torn || len(recs) != 0 {
				t.Fatalf("WAL after recovery: recs=%d torn=%v err=%v, want empty", len(recs), torn, err)
			}

			// The revived first incarnation is fenced out: its next round fails
			// with stale_epoch, it latches deposed, and member state is untouched.
			if _, err := co1.BeginRound(haRequests(rand.New(rand.NewSource(9)))); !errors.Is(err, api.ErrStaleEpoch) {
				t.Fatalf("revived old primary begin: err = %v, want api.ErrStaleEpoch", err)
			}
			if !co1.Deposed() {
				t.Fatal("revived old primary not deposed after stale_epoch rejection")
			}
			assertPeeksEqual(t, want, haPeeks(t, co2))
		})
	}
}

// TestStalePrimaryFencedNoDoubleApply is the split-brain half: a new
// incarnation takes over while the old primary has a round HALF-OPEN
// (gradients delivered, no commit). The takeover restores the last
// committed state — the torn round's gradients are wiped, not
// double-applied — and every member rejects the old primary's writes
// with stale_epoch.
func TestStalePrimaryFencedNoDoubleApply(t *testing.T) {
	nodes := haMembers(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))

	co1 := haCoordinator(t, nodes, dir, 0) // checkpoint every round
	ha1 := startHA(t, co1)
	driveHARounds(t, co1, api.FrameGradients, rng, 2)

	// Round 3 goes half-open: gradients land on the members, but the
	// commit frame never does.
	reqs := haRequests(rng)
	r3, err := co1.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var grads []fedora.RowGradient
	for _, req := range reqs {
		for _, row := range req {
			grads = append(grads, fedora.RowGradient{Row: row, Grad: haGrad(row), Samples: 1})
		}
	}
	delivered, err := r3.SubmitGradients(grads)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range delivered {
		if !ok {
			t.Fatalf("gradient %d not delivered pre-takeover", i)
		}
	}
	co1.StopProbes()
	ha1.release()

	// Takeover: the successor restores the round-2 checkpoint (wiping the
	// torn round member-side) and fences everyone at epoch 2.
	co2 := haCoordinator(t, nodes, dir, 0)
	startHA(t, co2)
	if got := co2.Epoch(); got != 2 {
		t.Fatalf("successor epoch = %d, want 2", got)
	}
	if got := co2.Round(); got != 2 {
		t.Fatalf("successor round = %d, want 2 (torn round 3 discarded)", got)
	}
	want := haPeeks(t, co2)

	// The old primary finishes its half-open round: every member rejects
	// it, the round fails loudly, and no gradient lands twice.
	if _, err := r3.Finish(); !errors.Is(err, api.ErrStaleEpoch) {
		t.Fatalf("stale finish: err = %v, want api.ErrStaleEpoch", err)
	}
	if !co1.Deposed() {
		t.Fatal("old primary not deposed after member rejections")
	}
	assertPeeksEqual(t, want, haPeeks(t, co2))

	// Every member, probed directly at the old epoch, refuses writes.
	for n, spec := range nodes {
		cc := testClientConfig()
		cc.BaseURL = spec.URL
		cli, err := client.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		cli.SetEpoch(1)
		_, err = cli.Begin(context.Background(), api.BeginV2Request{
			Requests: [][]uint64{{0}},
			RoundKey: fmt.Sprintf("stale-probe-%d", n),
		})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeStaleEpoch {
			t.Fatalf("member %d accepted an epoch-1 begin after epoch-2 takeover: %v", n, err)
		}
	}

	// And the deposed coordinator refuses to dirty the shared WAL.
	if err := co1.logBegin(99, [][]uint64{{0}}); !errors.Is(err, api.ErrStaleEpoch) {
		t.Fatalf("deposed WAL write: err = %v, want api.ErrStaleEpoch", err)
	}

	// The successor keeps training.
	driveHARounds(t, co2, api.FrameGradients, rng, 1)
	if got := co2.Round(); got != 3 {
		t.Fatalf("successor round after takeover = %d, want 3", got)
	}
}

// TestDeposedUnmaskIsStaleEpoch: a masked-codec round's uploads wait in
// the old primary's aggregator when a successor takes over; the unmask
// step then fans the sums out, the members refuse the old epoch, and
// the round's error wraps api.ErrStaleEpoch. /unmask must answer it as
// 409 stale_epoch — the reply the SDK fails over on — not 500 internal,
// which the SDK retries against the same deposed leader.
func TestDeposedUnmaskIsStaleEpoch(t *testing.T) {
	nodes := haMembers(t)
	dir := t.TempDir()
	co1 := haCoordinator(t, nodes, dir, 0) // checkpoint every round
	ha1 := startHA(t, co1)
	driveHARounds(t, co1, api.FrameGradients, rand.New(rand.NewSource(5)), 1)
	old := httptest.NewServer(api.NewServerFor(co1).Handler())
	t.Cleanup(old.Close)
	cc := testClientConfig()
	cc.BaseURL = old.URL
	cli, err := client.New(cc)
	if err != nil {
		t.Fatal(err)
	}

	// Round 2 opens on the old primary and takes both clients' masked
	// uploads, rows on both members.
	rows := [][]uint64{{1, 2}, {3, 200}}
	info, err := cli.BeginRound(context.Background(), rows)
	if err != nil {
		t.Fatal(err)
	}
	g := haGlobal()
	plan, err := wire.NewPlan(wire.Params{
		Codec: wire.CodecMasked, NumRows: g.NumRows, Dim: g.Dim,
		Round: info.Round, Roster: len(rows),
		SessionKey: wire.DeriveSessionKey(1, info.Round),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range rows {
		payload, _, err := plan.Encode(i, rs, [][]float32{haGrad(rs[0]), haGrad(rs[1])}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.SubmitWireUpload(context.Background(), info.RoundID, fmt.Sprintf("u%d", i), payload); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	co1.StopProbes()
	ha1.release()

	// Takeover: the successor fences every member at epoch 2.
	co2 := haCoordinator(t, nodes, dir, 0)
	startHA(t, co2)
	if got := co2.Epoch(); got != 2 {
		t.Fatalf("successor epoch = %d, want 2", got)
	}

	_, err = cli.Unmask(context.Background(), info.RoundID, nil)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != api.CodeStaleEpoch {
		t.Fatalf("unmask on the deposed primary: err = %v, want 409 %s", err, api.CodeStaleEpoch)
	}
	if !co1.Deposed() {
		t.Fatal("old primary not deposed after the members refused its unmask")
	}
}

// flakyMember serves a member slice behind a failure toggle: while the
// toggle is set every request answers 500, so the coordinator's calls
// to it fail and fence the node without the process "dying" — its
// controller state stays inspectable and it heals when the toggle
// clears.
func flakyMember(t *testing.T, global fedora.Config, first, count int) (*httptest.Server, *fedora.Controller, *atomic.Bool) {
	t.Helper()
	sub, err := fedora.SliceConfig(global, first, count)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := fedora.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	var fail atomic.Bool
	inner := api.NewServer(ctrl).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "injected member failure", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, ctrl, &fail
}

// TestHARecoveryAfterDegradedRoundNoDoubleApply: a batch that bounces off
// a fenced member (delivered=false) while the round still commits must
// NOT land on the restored member during WAL replay — the trainer saw
// it fail and owns the resubmission. Replay filters each op by its
// applied frame, so post-recovery state is bit-identical to the
// pre-crash state even for a degraded history.
func TestHARecoveryAfterDegradedRoundNoDoubleApply(t *testing.T) {
	for _, tc := range haKinds {
		t.Run(tc.name, func(t *testing.T) {
			global := haGlobal()
			m0, _ := startMember(t, global, 0, 1)
			m1, m1ctrl, m1fail := flakyMember(t, global, 1, 1)
			nodes := []NodeSpec{
				{URL: m0.URL, First: 0, Count: 1},
				{URL: m1.URL, First: 1, Count: 1},
			}
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(5))

			// Checkpoint cadence far beyond the run: everything after the
			// bootstrap checkpoint must come back from the WAL.
			co1 := haCoordinator(t, nodes, dir, 100)
			ha1 := startHA(t, co1)
			driveHARounds(t, co1, tc.kind, rng, 1)

			// Round 2 degrades mid-round: begin lands on both members, then m1
			// starts failing, so the batch's m1-owned rows bounce.
			reqs := haRequests(rng)
			r2, err := co1.BeginRound(reqs)
			if err != nil {
				t.Fatal(err)
			}
			m1fail.Store(true)
			rows := slices.Concat(reqs...)
			rowBase1 := co1.members[1].rowBase
			delivered, err := haSubmit(r2, tc.kind, rows)
			if err != nil {
				t.Fatal(err)
			}
			bounced := 0
			for i, ok := range delivered {
				if rows[i] >= rowBase1 {
					if ok {
						t.Fatalf("%s %d for row %d delivered through a failing member", tc.name, i, rows[i])
					}
					bounced++
				} else if !ok {
					t.Fatalf("%s %d for row %d bounced off the healthy member", tc.name, i, rows[i])
				}
			}
			if bounced == 0 {
				t.Fatal("test draw put no rows on the flaky member; pick another seed")
			}
			if _, err := r2.Finish(); err != nil {
				t.Fatalf("degraded round must still commit over the survivor: %v", err)
			}
			co1.StopProbes() // the crash (m1 still failing, so no migration raced in)
			ha1.release()

			// Pre-crash truth, member by member: m0 through the coordinator, m1
			// straight from its controller (it is fenced coordinator-side). m1's
			// rows carry round-1 gradients only — round 2 bounced. EVERY row is
			// sampled: the bounced rows are a random handful, and a sparse sample
			// could miss all of them and vacuously pass.
			var want [][]float32
			for row := uint64(0); row < global.NumRows; row++ {
				var v []float32
				var err error
				if row < rowBase1 {
					v, err = co1.PeekRow(row)
				} else {
					v, err = m1ctrl.PeekRow(row - rowBase1)
				}
				if err != nil {
					t.Fatalf("pre-crash peek row %d: %v", row, err)
				}
				want = append(want, v)
			}

			// Heal m1 and recover into a fresh incarnation: restore the bootstrap
			// checkpoint onto both members, replay round 1 in full and round 2
			// filtered by its applied frame.
			m1fail.Store(false)
			co2 := haCoordinator(t, nodes, dir, 100)
			startHA(t, co2)
			if got := co2.Round(); got != 2 {
				t.Fatalf("recovered round = %d, want 2", got)
			}
			var got [][]float32
			for row := uint64(0); row < global.NumRows; row++ {
				v, err := co2.PeekRow(row)
				if err != nil {
					t.Fatalf("post-recovery peek row %d: %v", row, err)
				}
				got = append(got, v)
			}
			assertPeeksEqual(t, want, got)

			// The trainer's resubmission of the bounced rows now lands exactly
			// once, on the recovered cluster.
			r3, err := co2.BeginRound(reqs)
			if err != nil {
				t.Fatal(err)
			}
			var resub []uint64
			for i, row := range rows {
				if !delivered[i] {
					resub = append(resub, row)
				}
			}
			redelivered, err := haSubmit(r3, tc.kind, resub)
			if err != nil {
				t.Fatal(err)
			}
			for i, ok := range redelivered {
				if !ok {
					t.Fatalf("resubmitted %s %d not delivered post-recovery", tc.name, i)
				}
			}
			if _, err := r3.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJoinStampsEpoch: a member that registers via /cluster/join after
// the coordinator is fenced must get a client carrying the current
// epoch — otherwise its traffic goes out unfenced and a deposed
// coordinator's writes would land on exactly the replacement nodes.
func TestJoinStampsEpoch(t *testing.T) {
	nodes := haMembers(t)
	co, err := New(Config{Fedora: haGlobal(), Nodes: nodes, Client: testClientConfig()})
	if err != nil {
		t.Fatal(err)
	}
	co.SetEpoch(7)
	replacement, _ := startMember(t, haGlobal(), 1, 1)
	resp, err := co.Join(api.ClusterJoinRequest{URL: replacement.URL, FirstShard: 1, ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted {
		t.Fatalf("join rejected: %s", resp.Message)
	}
	if got := co.members[1].cli.Epoch(); got != 7 {
		t.Fatalf("join-time member client epoch = %d, want 7", got)
	}
	// A later promotion re-stamps the joined member along with the rest.
	co.SetEpoch(8)
	if got := co.members[1].cli.Epoch(); got != 8 {
		t.Fatalf("joined member epoch after SetEpoch = %d, want 8", got)
	}
}

// TestPromotionSkipsCorruptNewestCheckpoint is the torn-checkpoint
// satellite: when the newest checkpoint is corrupt, promotion does not
// fail — it falls back to the previous valid epoch.
func TestPromotionSkipsCorruptNewestCheckpoint(t *testing.T) {
	nodes := haMembers(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))

	co1 := haCoordinator(t, nodes, dir, 0) // checkpoint every round
	ha1 := startHA(t, co1)
	driveHARounds(t, co1, api.FrameGradients, rng, 2)
	want := haPeeks(t, co1) // post-round-2 state = checkpoint epoch 3
	driveHARounds(t, co1, api.FrameGradients, rng, 1)
	co1.StopProbes()
	ha1.release()

	// Corrupt the newest checkpoint (epoch 4 = post-round-3) in place.
	epochs, err := co1.mgr.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	newest := co1.mgr.CheckpointPath(epochs[len(epochs)-1])
	f, err := os.OpenFile(newest, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage-not-a-checkpoint"), 8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	co2 := haCoordinator(t, nodes, dir, 0)
	startHA(t, co2) // must succeed despite the corrupt newest epoch
	if got := co2.Round(); got != 2 {
		t.Fatalf("recovered round = %d, want 2 (fell back past the corrupt checkpoint)", got)
	}
	assertPeeksEqual(t, want, haPeeks(t, co2))
}

// serveHAInstance serves a coordinator behind its HA gate the way
// cmd/fedora-coordinator mounts it. The HA instance is built after the
// server (it needs the listen URL for SelfURL), so the handler resolves
// it through an atomic pointer.
func serveHAInstance(t *testing.T, co *Coordinator) (*httptest.Server, *atomic.Pointer[HA]) {
	t.Helper()
	mux := http.NewServeMux()
	co.RegisterRoutes(mux)
	mux.Handle("/", api.NewServerFor(co).Handler())
	var slot atomic.Pointer[HA]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ha := slot.Load()
		if ha == nil {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		ha.Handler(mux).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &slot
}

// TestStandbyPromotesOnLeaseExpiry runs the full failover story in
// process: a standby serves only discovery routes (with a leader_hint)
// while the primary holds the leader lock, stays standby as long as it
// does, and once the dead primary's lock is dropped promotes — same
// model state, one epoch higher — while the SDK fails over to it.
func TestStandbyPromotesOnLeaseExpiry(t *testing.T) {
	nodes := haMembers(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))

	co1 := haCoordinator(t, nodes, dir, 0)
	srv1, slot1 := serveHAInstance(t, co1)
	ha1, err := NewHA(HAConfig{Coordinator: co1, SelfURL: srv1.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := ha1.Start(); err != nil {
		t.Fatal(err)
	}
	slot1.Store(ha1)
	driveHARounds(t, co1, api.FrameGradients, rng, 2)
	want := haPeeks(t, co1)

	co2 := haCoordinator(t, nodes, dir, 0)
	srv2, slot2 := serveHAInstance(t, co2)
	ha2, err := NewHA(HAConfig{
		Coordinator: co2,
		SelfURL:     srv2.URL,
		PeerURL:     srv1.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ha2.Start(); err != nil {
		t.Fatal(err)
	}
	slot2.Store(ha2)
	t.Cleanup(ha2.Stop)

	// While the primary is healthy the standby refuses writes with a
	// leader hint, serves discovery, and does not promote. Raw HTTP here:
	// the SDK would (correctly) follow the hint and succeed on the
	// primary, hiding the rejection under test.
	resp, err := http.Post(srv2.URL+"/v2/rounds", "application/json",
		strings.NewReader(`{"requests":[[0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || env.Error.Code != api.CodeNotLeader {
		t.Fatalf("standby begin: status %d code %q, want 409 not_leader", resp.StatusCode, env.Error.Code)
	}
	if env.Error.LeaderHint != srv1.URL {
		t.Fatalf("standby leader_hint = %q, want %q", env.Error.LeaderHint, srv1.URL)
	}
	cc := testClientConfig()
	cc.BaseURL = srv2.URL
	direct, err := client.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := direct.ClusterLeader(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ld.Role != "standby" || ld.LeaderURL != srv1.URL {
		t.Fatalf("standby /cluster/leader = %+v", ld)
	}
	time.Sleep(300 * time.Millisecond) // several lock retries
	if got := ha2.Role(); got != "standby" {
		t.Fatalf("standby promoted under a live primary (role %s)", got)
	}

	// Kill the primary, which drops its lock. The standby must promote.
	srv1.Close()
	co1.StopProbes()
	ha1.release()
	select {
	case <-ha2.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("standby did not promote within 10s of primary death")
	}
	if got := ha2.Role(); got != "primary" {
		t.Fatalf("post-promotion role = %s, want primary", got)
	}
	if got := co2.Epoch(); got != 2 {
		t.Fatalf("post-promotion epoch = %d, want 2", got)
	}
	if got := co2.Round(); got != 2 {
		t.Fatalf("post-promotion round = %d, want 2", got)
	}
	assertPeeksEqual(t, want, haPeeks(t, co2))

	// The SDK configured with both endpoints fails over to the standby.
	fc := testClientConfig()
	fc.Endpoints = []string{srv1.URL, srv2.URL}
	failover, err := client.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	ld, err = failover.ClusterLeader(context.Background())
	if err != nil {
		t.Fatalf("leader through failover client: %v", err)
	}
	if ld.Role != "primary" || ld.Epoch != 2 || ld.LeaderURL != srv2.URL {
		t.Fatalf("promoted /cluster/leader = %+v", ld)
	}
	if failover.Stats().Failovers == 0 {
		t.Fatal("failover not counted by the SDK")
	}

	// And the promoted coordinator keeps training.
	driveHARounds(t, co2, api.FrameGradients, rng, 1)
	if got := co2.Round(); got != 3 {
		t.Fatalf("promoted round after training = %d, want 3", got)
	}
}

// TestStandbyNeverPromotesUnderLivePrimary: a standby that cannot reach
// its peer at all stays standby while the primary lives, however long
// that is — no clock decides a failover — so it never claims an epoch
// above the live primary's, and the primary's checkpoint renames and
// WAL cuts go on.
func TestStandbyNeverPromotesUnderLivePrimary(t *testing.T) {
	nodes := haMembers(t)
	dir := t.TempDir()
	co1 := haCoordinator(t, nodes, dir, 0) // checkpoint every round
	startHA(t, co1)

	co2 := haCoordinator(t, nodes, dir, 0)
	ha2, err := NewHA(HAConfig{Coordinator: co2, PeerURL: "http://127.0.0.1:1"}) // unreachable
	if err != nil {
		t.Fatal(err)
	}
	if err := ha2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ha2.Stop)

	time.Sleep(3 * time.Second) // 30 lock retries while the primary lives
	if got := ha2.Role(); got != "standby" {
		t.Fatalf("standby promoted under a live primary (role %s)", got)
	}
	if got, err := readEpochFile(dir); err != nil || got != 1 {
		t.Fatalf("coordinator.epoch = %d (err %v), want the live primary's 1", got, err)
	}
	driveHARounds(t, co1, api.FrameGradients, rand.New(rand.NewSource(5)), 1)
	if st := clusterStatus(t, co1); st.LastCheckpointRound != 1 || st.LastCheckpointError != "" {
		t.Fatalf("primary after a cadence round: checkpoint round %d, error %q; want 1 and none",
			st.LastCheckpointRound, st.LastCheckpointError)
	}
}

// TestFailedPromotionReleasesLock: a standby that takes the leader lock
// and then fails to promote — every member is gone, so the checkpoint
// restore fails after the epoch claim — gives the lock up again and
// stays standby, so an instance that can lead is free to.
func TestFailedPromotionReleasesLock(t *testing.T) {
	global := haGlobal()
	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)
	nodes := []NodeSpec{{URL: m0.URL, First: 0, Count: 1}, {URL: m1.URL, First: 1, Count: 1}}
	dir := t.TempDir()
	co1 := haCoordinator(t, nodes, dir, 0)
	ha1 := startHA(t, co1)

	co2 := haCoordinator(t, nodes, dir, 0)
	ha2, err := NewHA(HAConfig{Coordinator: co2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ha2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ha2.Stop)
	if got := ha2.Role(); got != "standby" {
		t.Fatalf("second instance role = %s while the first leads, want standby", got)
	}

	m0.Close()
	m1.Close()
	co1.StopProbes()
	ha1.release()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if e, err := readEpochFile(dir); err == nil && e >= 2 {
			break // the standby held the lock and claimed an epoch
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby never claimed an epoch after the leader lock was released")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var unlock func()
	for {
		if unlock, err = persist.TryLockFile(filepath.Join(dir, leaderLockName)); err == nil {
			break
		}
		if !errors.Is(err, persist.ErrLocked) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the leader lock stayed held after a failed promotion")
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer unlock()
	if got := ha2.Role(); got != "standby" {
		t.Fatalf("role after a failed promotion = %s, want standby", got)
	}
}

// TestPromotedClosedWhenStartLeads: Promoted() is closed once the
// instance leads, also when it took the lock at Start.
func TestPromotedClosedWhenStartLeads(t *testing.T) {
	ha := startHA(t, haCoordinator(t, haMembers(t), t.TempDir(), 0))
	select {
	case <-ha.Promoted():
	default:
		t.Fatal("Promoted() still open after a Start that leads")
	}
	if got := ha.Role(); got != "primary" {
		t.Fatalf("role = %s, want primary", got)
	}
}
