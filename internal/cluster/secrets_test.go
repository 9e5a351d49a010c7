package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/fl"
)

// bodyTap records every response body a handler writes.
type bodyTap struct {
	next http.Handler
	mu   sync.Mutex
	seen map[string][]byte // "METHOD path" → concatenated bodies
}

type tapWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *tapWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (b *bodyTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &tapWriter{ResponseWriter: w}
	b.next.ServeHTTP(tw, r)
	key := r.Method + " " + r.URL.Path
	b.mu.Lock()
	b.seen[key] = append(b.seen[key], tw.buf.Bytes()...)
	b.mu.Unlock()
}

// TestNoSecretStatsOverCluster is internal/api's TestNoSecretStatsOverAPI
// over a coordinator: a prefetching, masked-sparse remote study runs
// through it, then every body it served — round replies, status, health,
// /cluster/status, /metrics — is checked for the names of the counts
// ε-FDP noises and of the prefetch counters that sum to them.
func TestNoSecretStatsOverCluster(t *testing.T) {
	secretNames := []string{
		"k_union", "dummy", "lost", "cross_chunk_dup",
		"prefetch_hits", "prefetch_wasted", "staged_rows",
	}
	flCfg := testFLConfig()
	flCfg.Prefetch = true
	flCfg.UploadCodec = "masked-sparse"
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, _ := startMember(t, global, 0, 1)
	m1, _ := startMember(t, global, 1, 1)
	cfg := Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: m0.URL, First: 0, Count: 1},
			{URL: m1.URL, First: 1, Count: 1},
		},
		Client: testClientConfig(),
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	co.RegisterRoutes(mux)
	mux.Handle("/", api.NewServerFor(co).Handler())
	tap := &bodyTap{next: mux, seen: make(map[string][]byte)}
	csrv := httptest.NewServer(tap)
	defer csrv.Close()

	runRemote(t, flCfg, csrv.URL)
	for _, path := range []string{"/v2/status", "/v2/rounds/r1", "/healthz", "/cluster/status", "/metrics"} {
		resp, err := http.Get(csrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, route := range []string{"POST /v2/rounds/r1/finish", "POST /v2/rounds/r1/unmask", "GET /cluster/status"} {
		if len(tap.seen[route]) == 0 {
			t.Errorf("the walk never saw a %s reply", route)
		}
	}
	for route, body := range tap.seen {
		for _, name := range secretNames {
			if strings.Contains(string(body), name) {
				t.Errorf("%s exposes %q:\n%.400s", route, name, body)
			}
		}
	}
}
