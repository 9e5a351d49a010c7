package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/shard"
)

// testFLConfig is the small study every cluster test drives: 2 shards so
// a 2-node cluster puts one shard on each member.
func testFLConfig() fl.Config {
	ds := dataset.Generate(dataset.Config{
		Name:           "cluster",
		NumItems:       160,
		NumUsers:       40,
		LatentDim:      6,
		SamplesPerUser: 12,
		TestFraction:   0.2,
		HistMean:       6,
		HistSkew:       1.2,
		HistZeroProb:   0.1,
		HistMax:        20,
		PopZipfS:       1.05,
		Seed:           7,
	})
	return fl.Config{
		Dataset:              ds,
		Dim:                  8,
		Hidden:               16,
		UsePrivate:           true,
		Epsilon:              1,
		ClientsPerRound:      10,
		MaxFeaturesPerClient: 20,
		LocalLR:              0.1,
		LocalEpochs:          2,
		Seed:                 1,
		Workers:              2,
		Shards:               2,
	}
}

const testRounds = 3

// testClientConfig keeps the retry budget tiny so node-loss detection is
// fast under test.
func testClientConfig() client.Config {
	return client.Config{
		Timeout:     10 * time.Second,
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		BatchSize:   16,
		RetrySeed:   1,
	}
}

// startMember builds the slice controller for shards [first,first+count)
// of the global config and serves it like fedora-server would.
func startMember(t *testing.T, global fedora.Config, first, count int) (*httptest.Server, *fedora.Controller) {
	t.Helper()
	return startMemberWith(t, global, first, count, func(h http.Handler) http.Handler { return h })
}

// startMemberWith is startMember with wrap around the member's handler.
func startMemberWith(t *testing.T, global fedora.Config, first, count int, wrap func(http.Handler) http.Handler) (*httptest.Server, *fedora.Controller) {
	t.Helper()
	sub, err := fedora.SliceConfig(global, first, count)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := fedora.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wrap(api.NewServer(ctrl).Handler()))
	t.Cleanup(srv.Close)
	return srv, ctrl
}

// startCoordinator builds a coordinator over the member URLs and serves
// it: api routes fronting the coordinator plus its /cluster routes, the
// same layout cmd/fedora-coordinator mounts.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Client.Timeout == 0 {
		cfg.Client = testClientConfig()
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	co.RegisterRoutes(mux)
	mux.Handle("/", api.NewServerFor(co).Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return co, srv
}

// runRemote drives the study against a served endpoint and returns the
// model fingerprint.
func runRemote(t *testing.T, flCfg fl.Config, url string) uint64 {
	t.Helper()
	cc := testClientConfig()
	cc.BaseURL = url
	c, err := client.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := client.NewRemoteTrainer(flCfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(testRounds); err != nil {
		t.Fatal(err)
	}
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestPlacementValidation: placements must tile [0, Shards) in order.
func TestPlacementValidation(t *testing.T) {
	global, err := fl.ControllerConfig(testFLConfig())
	if err != nil {
		t.Fatal(err)
	}
	global.Shards = 4
	cases := []struct {
		name  string
		nodes []NodeSpec
		ok    bool
	}{
		{"two-by-two", []NodeSpec{{URL: "http://a", First: 0, Count: 2}, {URL: "http://b", First: 2, Count: 2}}, true},
		{"whole-range", []NodeSpec{{URL: "http://a", First: 0, Count: 4}}, true},
		{"one-each", []NodeSpec{{URL: "http://a", First: 0, Count: 1}, {URL: "http://b", First: 1, Count: 1}, {URL: "http://c", First: 2, Count: 1}, {URL: "http://d", First: 3, Count: 1}}, true},
		{"gap", []NodeSpec{{URL: "http://a", First: 0, Count: 1}, {URL: "http://b", First: 2, Count: 2}}, false},
		{"overlap", []NodeSpec{{URL: "http://a", First: 0, Count: 3}, {URL: "http://b", First: 2, Count: 2}}, false},
		{"short", []NodeSpec{{URL: "http://a", First: 0, Count: 2}}, false},
		{"no-url", []NodeSpec{{First: 0, Count: 4}}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Config{Fedora: global, Nodes: tc.nodes, Client: testClientConfig()})
			if tc.ok && err != nil {
				t.Fatalf("want ok, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestRouteParity: every real row routes to the member owning its shard
// with the correct local index, dummies follow the engine's
// (client, position) round-robin, and per-client order is preserved.
func TestRouteParity(t *testing.T) {
	flCfg := testFLConfig()
	flCfg.Shards = 4
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: "http://a", First: 0, Count: 1},
			{URL: "http://b", First: 1, Count: 1},
			{URL: "http://c", First: 2, Count: 1},
			{URL: "http://d", First: 3, Count: 1},
		},
		Client: testClientConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	N := global.NumRows
	requests := [][]uint64{
		{0, 42, 159, fedora.DummyRequest},
		{fedora.DummyRequest, 7},
		{80, 81, 82},
	}
	perNode, err := co.route(requests)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the expected lists with the shard package's own
	// routing functions.
	want := make([][][]uint64, 4)
	for n := range want {
		want[n] = make([][]uint64, len(requests))
	}
	for ci, req := range requests {
		for j, row := range req {
			if row == fedora.DummyRequest {
				g := (ci + j) % 4
				want[g][ci] = append(want[g][ci], fedora.DummyRequest)
				continue
			}
			g := shard.ShardOf(N, 4, row)
			want[g][ci] = append(want[g][ci], row-shard.Base(N, 4, g))
		}
	}
	for n := range want {
		for ci := range want[n] {
			if len(perNode[n][ci]) != len(want[n][ci]) {
				t.Fatalf("node %d client %d: got %v want %v", n, ci, perNode[n][ci], want[n][ci])
			}
			for k := range want[n][ci] {
				if perNode[n][ci][k] != want[n][ci][k] {
					t.Fatalf("node %d client %d: got %v want %v", n, ci, perNode[n][ci], want[n][ci])
				}
			}
		}
	}

	// Routing a dummy onto a proper multi-shard slice must be rejected:
	// the member would re-route it by LOCAL position and break parity.
	co2, err := New(Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: "http://a", First: 0, Count: 2},
			{URL: "http://b", First: 2, Count: 2},
		},
		Client: testClientConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co2.route([][]uint64{{fedora.DummyRequest}}); err == nil {
		t.Fatal("want dummy-routing error for a 2-of-4-shard member")
	}
}

// TestClusterParityFingerprint is the tentpole acceptance test: the same
// study through a 2-node cluster coordinator lands on the bit-identical
// model an in-process single-controller run produces.
func TestClusterParityFingerprint(t *testing.T) {
	flCfg := testFLConfig()
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}

	local, err := fl.New(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Run(testRounds); err != nil {
		t.Fatal(err)
	}
	want, err := local.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)
	_, csrv := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 1},
		},
	})
	got := runRemote(t, flCfg, csrv.URL)
	if got != want {
		t.Fatalf("fingerprint mismatch: cluster %016x, local %016x", got, want)
	}
}

// TestClusterWireParity: the wire upload plane composes with the
// cluster fan-out — a masked remote run through the coordinator (which
// hosts the aggregator, unmasks, and fans the sums to the members as
// aggregate batches) lands on the bit-identical model of an in-process
// run under the plaintext wire codec, including rounds with dropouts.
func TestClusterWireParity(t *testing.T) {
	flCfg := testFLConfig()
	flCfg.DropoutProb = 0.25
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}

	localCfg := flCfg
	localCfg.UploadCodec = "plaintext"
	local, err := fl.New(localCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Run(testRounds); err != nil {
		t.Fatal(err)
	}
	want, err := local.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)
	_, csrv := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 1},
		},
	})
	wireCfg := flCfg
	wireCfg.UploadCodec = "masked"
	got := runRemote(t, wireCfg, csrv.URL)
	if got != want {
		t.Fatalf("fingerprint mismatch: cluster masked %016x, local plaintext %016x", got, want)
	}
}

// TestClusterSnapshotMatchesSingleProcess: the coordinator's assembled
// checkpoint is byte-identical to the snapshot of a single-process
// controller that served the same round sequence — the property that
// makes checkpoints portable between deployment shapes — at every shard
// count and placement, the one-shard cluster included.
func TestClusterSnapshotMatchesSingleProcess(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		nodes  [][2]int // {first, count} per member
	}{
		{"1shard-1member", 1, [][2]int{{0, 1}}},
		{"2shards-2members", 2, [][2]int{{0, 1}, {1, 1}}},
		{"3shards-members-0:1-1:2", 3, [][2]int{{0, 1}, {1, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flCfg := testFLConfig()
			flCfg.Shards = tc.shards
			// One trainer worker: ORAM-internal counters depend on serve
			// order, and byte-identity needs the deterministic sequential
			// order (the MODEL is order-independent — that's the
			// fingerprint test).
			flCfg.Workers = 1
			global, err := fl.ControllerConfig(flCfg)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: one process, one controller, driven remotely so
			// the round sequence is identical to the cluster run below.
			ctrl, err := fedora.New(global)
			if err != nil {
				t.Fatal(err)
			}
			ssrv := httptest.NewServer(api.NewServer(ctrl).Handler())
			t.Cleanup(ssrv.Close)
			runRemote(t, flCfg, ssrv.URL)
			want, err := ctrl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{Fedora: global}
			var members []*httptest.Server
			for _, n := range tc.nodes {
				m, _ := startMember(t, global, n[0], n[1])
				members = append(members, m)
				cfg.Nodes = append(cfg.Nodes, NodeSpec{URL: m.URL, First: n[0], Count: n[1]})
			}
			rejoin := tc.shards == 1
			if rejoin {
				mgr, err := persist.OpenManager(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cfg.Manager, cfg.CheckpointEvery = mgr, 1<<30
			}
			co, csrv := startCoordinator(t, cfg)
			runRemote(t, flCfg, csrv.URL)
			got, err := co.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("assembled cluster snapshot differs from single-process snapshot (%d vs %d bytes)", len(got), len(want))
			}

			// And it restores back through the coordinator.
			if err := co.Restore(got); err != nil {
				t.Fatal(err)
			}
			if !rejoin {
				return
			}

			// A replacement member joining the one-shard placement gets the
			// checkpoint's section replayed onto it (RecoverQuarantined).
			if _, err := cfg.Manager.SaveSection(persist.ControllerSection, co.Snapshot); err != nil {
				t.Fatal(err)
			}
			members[0].Close()
			r0, _ := startMember(t, global, 0, 1)
			resp, err := co.Join(api.ClusterJoinRequest{URL: r0.URL, FirstShard: 0, ShardCount: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Accepted || len(resp.Migrated) != 1 || resp.Migrated[0] != 0 {
				t.Fatalf("join = %+v, want accepted with shard 0 migrated", resp)
			}
			if h := co.Health(); h.Status != shard.StatusHealthy {
				t.Fatalf("health after migration = %s, want healthy", h.Status)
			}
			if again, err := co.Snapshot(); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("snapshot after migration differs from the checkpoint (err %v)", err)
			}
		})
	}
}

// TestClusterNodeLossAndMigration: killing a member degrades rounds
// (unavailable rows, not failed studies); a replacement process joining
// with the same slice gets the shard migrated onto it from the newest
// checkpoint and the cluster returns to healthy service.
func TestClusterNodeLossAndMigration(t *testing.T) {
	flCfg := testFLConfig()
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)

	// The join migrates from the manager's newest checkpoint: the one the
	// test saves after round 2 (the cadence is never reached).
	mgr, err := persist.OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co, csrv := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 1},
		},
		Manager:         mgr,
		CheckpointEvery: 1 << 30,
	})

	cc := testClientConfig()
	cc.BaseURL = csrv.URL
	c, err := client.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := client.NewRemoteTrainer(flCfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.SaveSection(persist.ControllerSection, co.Snapshot); err != nil {
		t.Fatal(err)
	}

	// Kill node 1 and keep training: rounds must degrade, not fail.
	m1.Close()
	unavailable := 0
	for r := 0; r < 2; r++ {
		rep, err := tr.RunRound()
		if err != nil {
			t.Fatalf("degraded round failed outright: %v", err)
		}
		unavailable += rep.UnavailableRows
	}
	if unavailable == 0 {
		t.Fatal("node loss produced no unavailable rows")
	}
	if h := co.Health(); h.Status != shard.StatusDegraded {
		t.Fatalf("health after node loss = %s, want degraded", h.Status)
	}

	// A replacement with the same slice joins; its shard is migrated
	// from the checkpoint and service heals.
	r1, _ := startMember(t, global, 1, 1)
	resp, err := co.Join(api.ClusterJoinRequest{URL: r1.URL, FirstShard: 1, ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || len(resp.Migrated) != 1 || resp.Migrated[0] != 1 {
		t.Fatalf("join = %+v, want accepted with shard 1 migrated", resp)
	}
	if h := co.Health(); h.Status != shard.StatusHealthy {
		t.Fatalf("health after migration = %s, want healthy", h.Status)
	}
	rep, err := tr.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnavailableRows != 0 {
		t.Fatalf("post-migration round still degraded: %d unavailable rows", rep.UnavailableRows)
	}
}

// TestJoinWithoutManagerRegistersFenced: a coordinator without a
// checkpoint directory has nothing to migrate from, so a joining node
// is registered fenced and no shard is migrated onto it.
func TestJoinWithoutManagerRegistersFenced(t *testing.T) {
	global, err := fl.ControllerConfig(testFLConfig())
	if err != nil {
		t.Fatal(err)
	}
	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)
	co, _ := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 1},
		},
	})

	r1, _ := startMember(t, global, 1, 1)
	resp, err := co.Join(api.ClusterJoinRequest{URL: r1.URL, FirstShard: 1, ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || len(resp.Migrated) != 0 {
		t.Fatalf("join = %+v, want accepted with nothing migrated", resp)
	}
	st := co.Status()
	if n := st.Nodes[1]; n.URL != r1.URL || n.State != "fenced" {
		t.Fatalf("joined node = %+v, want %s fenced", n, r1.URL)
	}
	if h := co.Health(); h.Status != shard.StatusDegraded {
		t.Fatalf("health after an unmigrated join = %s, want degraded", h.Status)
	}
}

// TestClusterStatusEndpoint: /cluster/status reports the placement map
// and node states over the wire.
func TestClusterStatusEndpoint(t *testing.T) {
	flCfg := testFLConfig()
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)
	_, csrv := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 1},
		},
	})
	cc := testClientConfig()
	cc.BaseURL = csrv.URL
	c, err := client.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.ClusterStatus(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.NumRows != global.NumRows || len(st.Nodes) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.Status != "healthy" {
		t.Fatalf("status = %s, want healthy", st.Status)
	}
	if st.Nodes[1].FirstRow != shard.Base(global.NumRows, 2, 1) {
		t.Fatalf("node 1 first row = %d", st.Nodes[1].FirstRow)
	}

	m0.Close()
	st, err = c.ClusterStatus(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "degraded" || st.Nodes[0].State != "fenced" {
		t.Fatalf("status after kill = %+v", st)
	}
}
