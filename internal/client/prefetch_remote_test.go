package client

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/fl"
)

// TestRemotePrefetchParity: a server driven by a lookahead trainer
// (staging round R+1 over POST /v2/rounds/{id}/stage while R trains)
// lands on the bit-identical model of a plain in-process run with no
// staging — the lookahead overlaps wall clock, never reorders the ORAM
// access sequence or the arithmetic.
func TestRemotePrefetchParity(t *testing.T) {
	want := localFingerprint(t, parityConfig(t))

	cfg := parityConfig(t)
	cfg.Prefetch = true
	ctrl, err := fl.BuildController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(ctrl).Handler())
	defer srv.Close()
	c, err := New(Config{
		BaseURL:     srv.URL,
		Timeout:     10 * time.Second,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		BatchSize:   16,
		RetrySeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewRemoteTrainer(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(parityRounds); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fingerprint mismatch: sync local %016x, prefetch remote %016x", want, got)
	}
	// The stage endpoint really fed the pipeline: staged begins loaded
	// rows that serves consumed from round 2 on.
	if rep := ctrl.PrefetchReport(); rep.Hits == 0 {
		t.Fatalf("no prefetch hits on the server: %+v", rep)
	}
	// And the round stats the trainer reads off the wire say so.
	tr.StageNext()
	rep, err := tr.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Prefetched {
		t.Fatalf("remote round stats not marked Prefetched: %+v", rep.RoundStats)
	}
}

// TestRemotePrefetchSurvivesFaults re-runs the executed-but-lost fault
// injection of TestRemoteRoundSurvivesFaults with the pipeline on: stage
// requests are retried under the same stage_key, so replays dedup
// instead of tripping the stage-mismatch guard, and the model stays
// bit-identical to the sync in-process run.
func TestRemotePrefetchSurvivesFaults(t *testing.T) {
	want := localFingerprint(t, parityConfig(t))

	cfg := parityConfig(t)
	cfg.Prefetch = true
	var n atomic.Int64
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1)%5 == 0 {
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r) // side effect lands, response lost
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	got, stats := remoteFingerprint(t, cfg, wrap)
	if stats.Retries == 0 {
		t.Fatal("fault injection produced no retries")
	}
	if stats.Failures != 0 {
		t.Fatalf("retries did not absorb the faults: %+v", stats)
	}
	if got != want {
		t.Fatalf("fingerprint mismatch under faults: sync local %016x, prefetch remote %016x", want, got)
	}
}
