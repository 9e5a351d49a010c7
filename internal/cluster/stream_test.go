package cluster

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/persist"
)

// onSnapshotReply runs a shard snapshot reply of h through reply once
// armed is set, which it clears: reply gets the writer and the whole
// reply the member produced, and sends what it likes of it. Every other
// request is h's.
func onSnapshotReply(armed *atomic.Bool, reply func(w http.ResponseWriter, rec *httptest.ResponseRecorder)) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/snapshot") || !armed.CompareAndSwap(true, false) {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.(http.Flusher).Flush() // the headers, Content-Length included, go out now
			reply(w, rec)
		})
	}
}

// TestCheckpointBodyCutMidStream: a member whose snapshot reply breaks
// off midway fails the save, never the round. No epoch is renamed into
// place, no temp file is left, the WAL keeps every round, and
// /cluster/status carries the error; the next cadence checkpoint
// succeeds and holds a single-process twin's bytes.
func TestCheckpointBodyCutMidStream(t *testing.T) {
	var armed atomic.Bool
	m0, _ := startMemberWith(t, haGlobal(), 0, 1, onSnapshotReply(&armed, func(w http.ResponseWriter, rec *httptest.ResponseRecorder) {
		_, _ = w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // the member dies mid-reply
	}))
	m1, _ := startMember(t, haGlobal(), 1, 1)
	nodes := []NodeSpec{{URL: m0.URL, First: 0, Count: 1}, {URL: m1.URL, First: 1, Count: 1}}
	dir := t.TempDir()
	const seed = 21
	rng := rand.New(rand.NewSource(seed))
	co := haCoordinator(t, nodes, dir, 3)
	startHA(t, co)
	before, err := co.mgr.Epochs()
	if err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	driveHARounds(t, co, api.FrameGradients, rng, 3) // fails the test if any round does
	if armed.Load() {
		t.Fatal("round 3's checkpoint asked no member for a snapshot")
	}
	st := clusterStatus(t, co)
	if st.LastCheckpointError == "" || st.LastCheckpointRound != 0 {
		t.Fatalf("after the cut save: checkpoint round %d, error %q; want the save failure",
			st.LastCheckpointRound, st.LastCheckpointError)
	}
	t.Logf("last_checkpoint_error: %s", st.LastCheckpointError)
	if epochs, err := co.mgr.Epochs(); err != nil || !slices.Equal(epochs, before) {
		t.Fatalf("epochs after the cut save = %v, %v; want %v, none renamed", epochs, err, before)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
		t.Fatalf("the cut save left %v behind", tmp)
	}
	if rounds, _, err := readRoundLog(co.mgr.WALPath()); err != nil || len(rounds) != 3 {
		t.Fatalf("WAL after the cut save: %d rounds, %v; want all 3 kept", len(rounds), err)
	}

	driveHARounds(t, co, api.FrameGradients, rng, 3)
	if st := clusterStatus(t, co); st.LastCheckpointRound != 6 || st.LastCheckpointError != "" {
		t.Fatalf("after the next cadence checkpoint: checkpoint round %d, error %q; want 6 and none",
			st.LastCheckpointRound, st.LastCheckpointError)
	}
	blob, _, _, err := co.mgr.LoadSection(persist.ControllerSection)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, twinSnapshot(t, seed, 6)) {
		t.Fatalf("checkpoint after the cut save (%d bytes) differs from the twin's", len(blob))
	}
	if rounds, _, err := readRoundLog(co.mgr.WALPath()); err != nil || len(rounds) != 0 {
		t.Fatalf("WAL after the next checkpoint: %d rounds, %v; want it cut", len(rounds), err)
	}
}

// TestRoundDuringCheckpointDrain: the round after a cadence checkpoint
// runs while the saver is still reading a member's reply — the member
// answered with headers and holds the rest. The released save's file
// holds the twin's bytes at the checkpoint round, Snapshot() the twin's
// at the later round, and Status waits for the save.
func TestRoundDuringCheckpointDrain(t *testing.T) {
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unhold := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unhold)
	m0, _ := startMemberWith(t, haGlobal(), 0, 1, onSnapshotReply(&armed, func(w http.ResponseWriter, rec *httptest.ResponseRecorder) {
		close(held)
		<-release
		_, _ = w.Write(rec.Body.Bytes())
	}))
	m1, _ := startMember(t, haGlobal(), 1, 1)
	nodes := []NodeSpec{{URL: m0.URL, First: 0, Count: 1}, {URL: m1.URL, First: 1, Count: 1}}
	const seed = 22
	rng := rand.New(rand.NewSource(seed))
	co := haCoordinator(t, nodes, t.TempDir(), 3)
	startHA(t, co)

	armed.Store(true)
	driveHARounds(t, co, api.FrameGradients, rng, 3)
	<-held
	driveHARounds(t, co, api.FrameGradients, rng, 1)

	status := make(chan api.ClusterStatusResponse, 1)
	go func() { status <- co.Status() }()
	select {
	case st := <-status:
		t.Fatalf("Status returned while the save was held: checkpoint round %d", st.LastCheckpointRound)
	default:
	}
	unhold()
	if st := <-status; st.LastCheckpointRound != 3 || st.LastCheckpointError != "" || st.Round != 4 {
		t.Fatalf("status after the save: round %d, checkpoint round %d, error %q; want 4, 3 and none",
			st.Round, st.LastCheckpointRound, st.LastCheckpointError)
	}
	blob, _, _, err := co.mgr.LoadSection(persist.ControllerSection)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, twinSnapshot(t, seed, 3)) {
		t.Fatalf("the drained checkpoint (%d bytes) differs from the twin's at round 3", len(blob))
	}
	got, err := co.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, twinSnapshot(t, seed, 4)) {
		t.Fatalf("Snapshot after the drain (%d bytes) differs from the twin's at round 4", len(got))
	}
}

// restoreCounter counts shard restore requests to one host.
type restoreCounter struct {
	host string
	n    atomic.Int64
}

func (rc *restoreCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == rc.host && strings.HasSuffix(req.URL.Path, "/restore") {
		rc.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRecoverSkipsNodeItsProbeFenced: RecoverQuarantined refreshes the
// member view first, and a member that fails that probe has just shown
// it does not answer — replaying its shards onto it only spends the
// client's retries and backoff. No restore is sent to it.
func TestRecoverSkipsNodeItsProbeFenced(t *testing.T) {
	m0, _ := startMember(t, haGlobal(), 0, 1)
	m1, _ := startMember(t, haGlobal(), 1, 1)
	u, err := url.Parse(m1.URL)
	if err != nil {
		t.Fatal(err)
	}
	rc := &restoreCounter{host: u.Host}
	mgr, err := persist.OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cc := testClientConfig()
	cc.HTTPClient = &http.Client{Transport: rc}
	co, err := New(Config{
		Fedora: haGlobal(), Client: cc, Manager: mgr, CheckpointEvery: 1 << 30,
		Nodes: []NodeSpec{{URL: m0.URL, First: 0, Count: 1}, {URL: m1.URL, First: 1, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.StopProbes)
	driveHARounds(t, co, api.FrameGradients, rand.New(rand.NewSource(5)), 2)
	blob, err := co.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	m1.Close()
	recovered, err := co.RecoverQuarantined(blob)
	if err != nil || len(recovered) != 0 {
		t.Fatalf("RecoverQuarantined = %v, %v; want nothing recovered and no error", recovered, err)
	}
	if !co.isFenced(1) {
		t.Fatal("the closed member is not fenced")
	}
	if n := rc.n.Load(); n != 0 {
		t.Fatalf("%d restore request(s) sent to the member the probe just fenced, want 0", n)
	}
}
