package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/device"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/shard"
)

// requestCounter counts the requests a member answers, by path.
type requestCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (rc *requestCounter) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc.mu.Lock()
		rc.n[r.URL.Path]++
		rc.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (rc *requestCounter) count(path string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.n[path]
}

// startCountedMember is startMember with the member's requests counted.
func startCountedMember(t *testing.T, global fedora.Config, first, count int) (*httptest.Server, *fedora.Controller, *requestCounter) {
	t.Helper()
	sub, err := fedora.SliceConfig(global, first, count)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := fedora.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	rc := &requestCounter{n: make(map[string]int)}
	srv := httptest.NewServer(rc.wrap(api.NewServer(ctrl).Handler()))
	t.Cleanup(srv.Close)
	return srv, ctrl, rc
}

// remoteTrainer builds a remote trainer against a served endpoint.
func remoteTrainer(t *testing.T, flCfg fl.Config, url string) *fl.Trainer {
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
	return tr
}

// TestHealthyRoundsSendNoProbe: a durable coordinator's healthy round
// carries no /healthz probe. Health on the round path (AfterRound's
// check) reads the member view, and a member is probed only when its
// finish reply's quarantine count disagrees with that view.
func TestHealthyRoundsSendNoProbe(t *testing.T) {
	flCfg := testFLConfig()
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, _, rc0 := startCountedMember(t, global, 0, 1)
	m1, _, rc1 := startCountedMember(t, global, 1, 1)
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
		CheckpointEvery: 5,
	})
	t.Cleanup(co.WaitSaved) // before the checkpoint directory goes
	if _, err := remoteTrainer(t, flCfg, csrv.URL).Run(10); err != nil {
		t.Fatal(err)
	}
	co.WaitSaved()
	if r := co.Round(); r != 10 {
		t.Fatalf("coordinator at round %d, want 10", r)
	}
	if epochs, err := mgr.Epochs(); err != nil || len(epochs) == 0 {
		t.Fatalf("no checkpoint saved on the cadence (epochs %v, err %v)", epochs, err)
	}
	for n, rc := range []*requestCounter{rc0, rc1} {
		if got := rc.count("/healthz"); got != 0 {
			t.Errorf("member %d answered %d /healthz probes over 10 healthy rounds, want 0", n, got)
		}
	}
	if h := co.Health(); h.Status != shard.StatusHealthy {
		t.Fatalf("health = %s, want healthy", h.Status)
	}
}

// TestStatusAsksEachMemberOnce: one /v2/status on a coordinator is one
// /v2/status per live member, and its footprints and SSD byte counters
// are the members' sums.
func TestStatusAsksEachMemberOnce(t *testing.T) {
	flCfg := testFLConfig()
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, c0, rc0 := startCountedMember(t, global, 0, 1)
	m1, c1, rc1 := startCountedMember(t, global, 1, 1)
	_, csrv := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 1},
		},
	})
	runRemote(t, flCfg, csrv.URL)

	before := []int{rc0.count("/v2/status"), rc1.count("/v2/status")}
	resp, err := http.Get(csrv.URL + "/v2/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for n, rc := range []*requestCounter{rc0, rc1} {
		if got := rc.count("/v2/status") - before[n]; got != 1 {
			t.Errorf("member %d answered %d /v2/status requests for one coordinator status, want 1", n, got)
		}
	}
	want := api.StatusResponse{
		Backend: "cluster/" + global.Backend.String(), Shards: 2,
		MainORAMBytes:   c0.MainORAMBytes() + c1.MainORAMBytes(),
		DRAMBytes:       c0.DRAMResidentBytes() + c1.DRAMResidentBytes(),
		SSDBytesRead:    c0.SSDStats().BytesRead + c1.SSDStats().BytesRead,
		SSDBytesWritten: c0.SSDStats().BytesWritten + c1.SSDStats().BytesWritten,
	}
	got := api.StatusResponse{
		Backend: st.Backend, Shards: st.Shards,
		MainORAMBytes: st.MainORAMBytes, DRAMBytes: st.DRAMBytes,
		SSDBytesRead: st.SSDBytesRead, SSDBytesWritten: st.SSDBytesWritten,
	}
	if got != want {
		t.Fatalf("status = %+v, want the members' sums %+v", got, want)
	}
}

// armedDevice fails its next data operation with an injected fault once
// armed — a quarantine trigger at a point the test chooses.
type armedDevice struct {
	device.Device
	armed *atomic.Bool
	fired *atomic.Int64
}

func (d armedDevice) fault(op string, addr uint64) error {
	if d.armed.CompareAndSwap(true, false) {
		d.fired.Add(1)
		return fmt.Errorf("armed %s at %d: %w", op, addr, device.ErrInjected)
	}
	return nil
}

func (d armedDevice) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	if err := d.fault("read", addr); err != nil {
		return 0, err
	}
	return d.Device.ReadAt(addr, p)
}

func (d armedDevice) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	if err := d.fault("write", addr); err != nil {
		return 0, err
	}
	return d.Device.WriteAt(addr, p)
}

func (d armedDevice) PeekAt(addr uint64, p []byte) error {
	if err := d.fault("peek", addr); err != nil {
		return err
	}
	return d.Device.PeekAt(addr, p)
}

func (d armedDevice) PokeAt(addr uint64, p []byte) error {
	if err := d.fault("poke", addr); err != nil {
		return err
	}
	return d.Device.PokeAt(addr, p)
}

// TestMemberQuarantineRecoveredAtFinish: a live member that quarantines
// a shard during round R says so in its finish reply; the coordinator
// re-reads that member's /healthz, and R's post-round upkeep restores
// the shard from the newest checkpoint. The member view then reads
// healthy without another probe. Member 1 serves two shards, so one
// quarantined shard leaves it live rather than fenced.
func TestMemberQuarantineRecoveredAtFinish(t *testing.T) {
	flCfg := testFLConfig()
	flCfg.Shards = 3
	flCfg.EvictPeriod = 1 // every round reaches the SSD
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	var fired atomic.Int64
	faulty := global
	faulty.WrapDevice = func(name string, d device.Device) device.Device {
		if strings.HasSuffix(name, "ssd") {
			return armedDevice{Device: d, armed: &armed, fired: &fired}
		}
		return d
	}
	m0, _, rc0 := startCountedMember(t, global, 0, 1)
	m1, c1, rc1 := startCountedMember(t, faulty, 1, 2)
	mgr, err := persist.OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co, csrv := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 2},
		},
		Manager:         mgr,
		CheckpointEvery: 1,
	})
	t.Cleanup(co.WaitSaved) // before the checkpoint directory goes
	tr := remoteTrainer(t, flCfg, csrv.URL)
	if _, err := tr.Run(2); err != nil {
		t.Fatal(err)
	}

	// Round R: member 1's SSD fails once.
	armed.Store(true)
	if _, err := tr.RunRound(); err != nil {
		t.Fatalf("round with a quarantined shard failed outright: %v", err)
	}
	if fired.Load() != 1 {
		t.Fatalf("the armed fault fired %d times in the round, want 1", fired.Load())
	}
	if h := c1.Health(); h.Status != shard.StatusHealthy || h.Quarantines != 1 || h.Recoveries != 1 {
		t.Fatalf("member 1 after round R: %+v, want its shard quarantined once and restored", h)
	}
	restores := 0
	for g := 0; g < 3; g++ {
		restores += rc0.count(fmt.Sprintf("/v2/admin/shards/%d/restore", g)) +
			rc1.count(fmt.Sprintf("/v2/admin/shards/%d/restore", g))
	}
	if restores != 1 {
		t.Fatalf("the members answered %d shard restores, want 1", restores)
	}
	if st := co.Status(); st.Nodes[1].State != "live" {
		t.Fatalf("member 1 = %+v, want live (quarantine is not a fence)", st.Nodes[1])
	}

	probes := rc0.count("/healthz") + rc1.count("/healthz")
	h := co.Health()
	if h.Status != shard.StatusHealthy {
		t.Fatalf("coordinator health after round R's recovery = %+v, want healthy", h)
	}
	if got := rc0.count("/healthz") + rc1.count("/healthz"); got != probes {
		t.Fatalf("Health sent %d probes, want none", got-probes)
	}

	// The next round is healthy again and sends no probe.
	if _, err := tr.RunRound(); err != nil {
		t.Fatal(err)
	}
	if got := rc0.count("/healthz") + rc1.count("/healthz"); got != probes {
		t.Fatalf("a healthy round after the recovery sent %d probes, want none", got-probes)
	}
}
