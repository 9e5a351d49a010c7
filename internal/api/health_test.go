package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
)

// newShardedFaultServer builds a 2-shard encrypted controller whose
// shard-1 SSD trips permanently on its first operation. EvictPeriod 1
// forces the RAW ORAM to write a path back on every access (a small
// fresh workload is otherwise absorbed entirely by the stash and never
// touches the SSD), so the fault bites during round 1's ORAM reads.
// autoRecover wires WithAutoRecover on a fresh checkpoint directory.
func newShardedFaultServer(t *testing.T, autoRecover bool) (*httptest.Server, *fedora.Controller, *Server) {
	t.Helper()
	plan := &fault.Plan{
		Seed: 7,
		Rules: []fault.Rule{
			{Device: "shard1/ssd", Kind: fault.KindTrip},
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 1, Seed: 1, Shards: 2, Encrypt: true,
		EvictPeriod: 1,
		WrapDevice:  plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	var opts []Option
	if autoRecover {
		mgr, err := persist.OpenManager(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithAutoRecover(mgr, 1))
	}
	s := NewServer(ctrl, opts...)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, ctrl, s
}

// runRoundHTTP drives one round (begin rows, finish) through the v2 API
// and returns the round id.
func runRoundHTTP(t *testing.T, base string, rows string) string {
	t.Helper()
	resp, err := http.Post(base+"/v2/rounds", "application/json",
		strings.NewReader(`{"requests": [[`+rows+`]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var info RoundInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("begin over HTTP: %d %+v", resp.StatusCode, info)
	}
	resp, err = http.Post(base+"/v2/rounds/"+info.RoundID+"/finish", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finish over HTTP: %d", resp.StatusCode)
	}
	return info.RoundID
}

func getHealthz(t *testing.T, base string) (int, HealthzResponse) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestHealthzHealthy: a fresh monolithic server reports healthy with a
// single synthetic shard entry.
func TestHealthzHealthy(t *testing.T) {
	base, _ := newTestServer(t)
	code, out := getHealthz(t, base)
	if code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if out.Status != shard.StatusHealthy || len(out.Shards) != 1 {
		t.Errorf("healthz = %+v", out)
	}
}

// TestHealthzDegradedAfterFault: round 1's write-back trips shard 1's
// SSD and quarantines it; with no auto-recovery configured /healthz
// reports degraded (still 200 — load balancers must keep routing) with
// per-shard detail, and stays degraded across later rounds.
func TestHealthzDegradedAfterFault(t *testing.T) {
	srv, _, _ := newShardedFaultServer(t, false)

	runRoundHTTP(t, srv.URL, "5, 900") // write-back trips shard1/ssd
	code, out := getHealthz(t, srv.URL)
	if code != http.StatusOK {
		t.Fatalf("degraded healthz status = %d (load balancers must keep routing)", code)
	}
	if out.Status != shard.StatusDegraded || out.Quarantines != 1 || out.Recoveries != 0 {
		t.Fatalf("healthz = %+v, want degraded with 1 quarantine", out)
	}
	if !out.Shards[1].Quarantined || out.Shards[1].Cause == "" {
		t.Errorf("shard detail = %+v", out.Shards[1])
	}
	if out.Shards[0].Quarantined {
		t.Errorf("healthy shard flagged: %+v", out.Shards[0])
	}

	// Later rounds keep running over the survivor.
	runRoundHTTP(t, srv.URL, "5")
	if _, out := getHealthz(t, srv.URL); out.Status != shard.StatusDegraded {
		t.Fatalf("second-round healthz = %+v", out)
	}
}

// TestHealthzAutoRecover: with WithAutoRecover, the finish that
// quarantined shard 1 immediately restores it from the bootstrap
// checkpoint — the caller of /healthz only ever sees healthy, with the
// quarantine and recovery counted.
func TestHealthzAutoRecover(t *testing.T) {
	srv, _, _ := newShardedFaultServer(t, true)

	runRoundHTTP(t, srv.URL, "5, 900")
	code, out := getHealthz(t, srv.URL)
	if code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if out.Status != shard.StatusHealthy || out.Quarantines != 1 || out.Recoveries != 1 {
		t.Fatalf("post-recovery healthz = %+v, want healthy with 1 quarantine + 1 recovery", out)
	}
	if out.RecoverError != "" {
		t.Errorf("recover_error = %q", out.RecoverError)
	}
}

// TestEntriesReportUnavailable: downloads routed to a quarantined shard
// come back per-row unavailable (not errors), and gradient uploads to
// those rows report undelivered.
func TestEntriesReportUnavailable(t *testing.T) {
	srv, _, _ := newShardedFaultServer(t, false)

	// Round 1 quarantines shard 1 at write-back.
	runRoundHTTP(t, srv.URL, "900")

	// Round 2 runs degraded: begin skips the quarantined shard.
	body := strings.NewReader(`{"requests": [[5, 900]]}`)
	resp, err := http.Post(srv.URL+"/v2/rounds", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var info RoundInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("begin: %d", resp.StatusCode)
	}

	status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows": [5, 900]}`)
	entries, err := entriesOf(data)
	if status != http.StatusOK || err != nil || len(entries) != 2 {
		t.Fatalf("entries: status %d, %d rows, err %v", status, len(entries), err)
	}
	// Row 5 lives on shard 0 (healthy); row 900 on shard 1 (tripped).
	if !entries[0].OK || entries[0].Unavailable {
		t.Errorf("healthy-shard entry = %+v", entries[0])
	}
	if !entries[1].Unavailable || entries[1].OK {
		t.Errorf("quarantined-shard entry = %+v", entries[1])
	}

	_, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", gradsBody(1, 1, 900))
	var grads GradientBatchResponse
	if err := json.Unmarshal(data, &grads); err != nil {
		t.Fatal(err)
	}
	if grads.Delivered != 0 || grads.Dropped != 1 {
		t.Errorf("gradient to quarantined shard = %+v", grads)
	}

	resp, err = http.Post(srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded finish: %d", resp.StatusCode)
	}
}

// TestMaxInFlightSheds: with a 1-slot limiter, a request arriving while
// another holds the slot is shed with 503 + Retry-After and counted.
func TestMaxInFlightSheds(t *testing.T) {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 64, Dim: 2, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 4, MaxFeaturesPerClient: 4,
		LearningRate: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ctrl, WithMaxInFlight(1))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Occupy the only slot directly, then hit a limited route.
	s.inflight <- struct{}{}
	resp, err := http.Post(srv.URL+"/v2/rounds", "application/json",
		strings.NewReader(`{"requests": [[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no Retry-After header on shed response")
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeOverloaded {
		t.Errorf("code = %q", env.Error.Code)
	}
	if s.Shed() != 1 {
		t.Errorf("Shed() = %d", s.Shed())
	}
	<-s.inflight

	// Slot free again: the same request succeeds, and /healthz was
	// never subject to the limiter.
	code, out := getHealthz(t, srv.URL)
	if code != http.StatusOK || out.Shed != 1 {
		t.Fatalf("healthz after shed = %d %+v", code, out)
	}
	resp2, err := http.Post(srv.URL+"/v2/rounds", "application/json",
		strings.NewReader(`{"requests": [[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("post-shed begin = %d", resp2.StatusCode)
	}
}

// TestMaxInFlightConcurrent hammers a limited server from many
// goroutines; every response is either success or a clean shed — no
// hangs, no slot leaks (the final request must succeed).
func TestMaxInFlightConcurrent(t *testing.T) {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 64, Dim: 2, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 4, MaxFeaturesPerClient: 4,
		LearningRate: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ctrl, WithMaxInFlight(2))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v2/status")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	// All slots must have drained.
	if len(s.inflight) != 0 {
		t.Fatalf("inflight slots leaked: %d", len(s.inflight))
	}
}
