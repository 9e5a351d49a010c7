package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/fl"
	"repro/internal/wire"
)

// runRemoteWire drives cfg against a served endpoint round by round,
// returning the fingerprint plus the dropout and wire-byte tallies the
// wire tests assert on.
func runRemoteWire(t *testing.T, cfg fl.Config, url string, wrapCfg func(*Config)) (uint64, Stats, int, uint64) {
	t.Helper()
	cc := Config{
		BaseURL:     url,
		Timeout:     10 * time.Second,
		MaxRetries:  6,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		BatchSize:   16,
		RetrySeed:   1,
	}
	if wrapCfg != nil {
		wrapCfg(&cc)
	}
	c, err := New(cc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewRemoteTrainer(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	dropped, bytes := 0, uint64(0)
	for r := 0; r < parityRounds; r++ {
		rep, err := tr.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		dropped += rep.DroppedClients
		bytes += rep.WireBytes
	}
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp, c.Stats(), dropped, bytes
}

// TestRemoteWireParity is the upload plane's acceptance criterion: a
// remote run under the masked codecs reproduces the plaintext
// in-process fingerprint bit for bit — the server hosts the
// aggregator, runs the unmasking round for the dropped clients, and
// applies the exact same fixed-point sums the local plane would.
func TestRemoteWireParity(t *testing.T) {
	cfg := parityConfig(t)
	cfg.DropoutProb = 0.25

	localCfg := cfg
	localCfg.UploadCodec = "plaintext"
	local := localFingerprint(t, localCfg)

	for _, codec := range []string{"masked", "masked-sparse"} {
		rcfg := cfg
		rcfg.UploadCodec = codec
		ctrl, err := fl.BuildController(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(api.NewServer(ctrl).Handler())
		remote, stats, dropped, bytes := runRemoteWire(t, rcfg, srv.URL, nil)
		if remote != local {
			t.Fatalf("%s: fingerprint mismatch: remote %016x, local plaintext %016x", codec, remote, local)
		}
		if stats.Failures != 0 {
			t.Fatalf("%s: clean run reported failures: %+v", codec, stats)
		}
		if dropped == 0 {
			t.Fatalf("%s: no dropouts over %d rounds at DropoutProb 0.25", codec, parityRounds)
		}
		if bytes == 0 {
			t.Fatalf("%s: wire bytes not accounted", codec)
		}

		// Satellite: /metrics surfaces the upload plane's counters.
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics := string(body)
		if !strings.Contains(metrics, "fedora_wire_bytes_total "+formatUint(bytes)) {
			t.Fatalf("%s: /metrics fedora_wire_bytes_total does not match trainer accounting %d:\n%s",
				codec, bytes, grepLines(metrics, "fedora_wire"))
		}
		if !strings.Contains(metrics, `fedora_wire_uploads_total{codec="`+codec+`"}`) ||
			strings.Contains(metrics, `fedora_wire_uploads_total{codec="`+codec+`"} 0`) {
			t.Fatalf("%s: /metrics missing per-codec upload counter:\n%s",
				codec, grepLines(metrics, "fedora_wire"))
		}
		srv.Close()
	}
}

// TestRemoteWireSurvivesFaults: the dropout-unmasking protocol survives
// injected 503s on requests whose side effect already landed — batch-id
// dedup absorbs replayed uploads, the unmask endpoint replays its
// recorded outcome, and the model stays bit-identical to the local
// plaintext run.
func TestRemoteWireSurvivesFaults(t *testing.T) {
	cfg := parityConfig(t)
	cfg.DropoutProb = 0.25

	localCfg := cfg
	localCfg.UploadCodec = "plaintext"
	local := localFingerprint(t, localCfg)

	rcfg := cfg
	rcfg.UploadCodec = "masked"
	ctrl, err := fl.BuildController(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	inner := api.NewServer(ctrl).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%5 == 0 {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r) // side effect lands, response lost
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	remote, stats, dropped, _ := runRemoteWire(t, rcfg, srv.URL, nil)
	if stats.Retries == 0 {
		t.Fatal("fault injection produced no retries")
	}
	if stats.Failures != 0 {
		t.Fatalf("retries did not absorb the faults: %+v", stats)
	}
	if dropped == 0 {
		t.Fatal("no dropouts under fault injection")
	}
	if remote != local {
		t.Fatalf("fingerprint mismatch under faults: remote %016x, local %016x", remote, local)
	}
	t.Logf("survived faults with dropouts: %+v", stats)
}

// TestServerUploadCodecPolicy: a server pinned to a masked codec
// rejects plaintext gradient frames and mismatched wire codecs, and
// serves a matching trainer normally.
func TestServerUploadCodecPolicy(t *testing.T) {
	cfg := parityConfig(t)
	ctrl, err := fl.BuildController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(ctrl, api.WithUploadCodec(wire.CodecMasked)).Handler())
	defer srv.Close()

	// Plain gradient frames violate the policy mid-round.
	legacy := cfg
	cc := Config{BaseURL: srv.URL, MaxRetries: 0, RetrySeed: 1}
	c, err := New(cc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewRemoteTrainer(legacy, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunRound(); err == nil {
		t.Fatal("policy server accepted plaintext gradient frames")
	}
	// The rejected round is still open server-side; close it so the
	// masked trainer can begin.
	if st, err := c.Status(context.Background()); err == nil && st.CurrentRoundID != "" {
		if _, err := c.FinishRound(context.Background(), st.CurrentRoundID); err != nil {
			t.Fatal(err)
		}
	}

	// A matching masked trainer runs clean.
	masked := cfg
	masked.UploadCodec = "masked"
	// A distinct RetrySeed keeps c2's idempotency keys from colliding
	// with c's (a shared seed would make c2's begin land on c's round).
	c2, err := New(Config{BaseURL: srv.URL, MaxRetries: 2, BackoffBase: time.Millisecond, RetrySeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := NewRemoteTrainer(masked, c2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.RunRound(); err != nil {
		t.Fatalf("policy server rejected a matching masked trainer: %v", err)
	}

	st, err := c2.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.UploadCodec != "masked" {
		t.Fatalf("status advertises upload_codec %q, want masked", st.UploadCodec)
	}
}

// formatUint avoids importing strconv twice in assertions above.
func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// grepLines filters metrics output for failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
