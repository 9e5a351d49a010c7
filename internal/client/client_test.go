package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// fastConfig keeps backoff short so fault tests run in milliseconds.
func fastConfig(url string) Config {
	return Config{
		BaseURL:     url,
		Timeout:     2 * time.Second,
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		RetrySeed:   1,
	}
}

func statusJSON() string {
	b, _ := json.Marshal(api.StatusResponse{Backend: "fedora", Shards: 1, NumRows: 64, EffectiveEpsilon: "1"})
	return string(b)
}

// Test5xxBurstThenSuccess: the SDK retries a burst of server faults
// with bounded attempts and reports the retries in its stats.
func Test5xxBurstThenSuccess(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"internal","message":"boom"}}`)
			return
		}
		fmt.Fprint(w, statusJSON())
	}))
	defer srv.Close()

	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "fedora" {
		t.Fatalf("status = %+v", st)
	}
	stats := c.Stats()
	if stats.Requests != 4 || stats.Retries != 3 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want 4 requests / 3 retries / 0 failures", stats)
	}
}

// TestTimeoutThenSuccess: a hung attempt times out (per-attempt
// deadline) and the retry lands.
func TestTimeoutThenSuccess(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // hang until the test ends
			return
		}
		fmt.Fprint(w, statusJSON())
	}))
	defer srv.Close()
	defer close(release)

	cfg := fastConfig(srv.URL)
	cfg.Timeout = 50 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stats := c.Stats(); stats.Retries != 1 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 retry", stats)
	}
}

// TestConnectionResetThenSuccess: a connection killed mid-flight is a
// retryable transport error.
func TestConnectionResetThenSuccess(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // slam the door
			return
		}
		fmt.Fprint(w, statusJSON())
	}))
	defer srv.Close()

	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stats := c.Stats(); stats.Retries == 0 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want ≥1 retry and no failures", stats)
	}
}

// Test4xxNotRetried: client errors are final — one attempt, typed error.
func Test4xxNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"round_not_found","message":"unknown round"}}`)
	}))
	defer srv.Close()

	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RoundInfo(context.Background(), "nope")
	if err == nil {
		t.Fatal("want error")
	}
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != "round_not_found" {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retries on 4xx)", got)
	}
	if stats := c.Stats(); stats.Failures != 1 || stats.Retries != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRetryBudgetExhausted: a persistent fault stops after MaxRetries+1
// attempts and reports the failure.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	cfg := fastConfig(srv.URL)
	cfg.MaxRetries = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Status(context.Background())
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "after 3 attempt(s)") {
		t.Fatalf("err = %v, want 3 attempts reported", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if stats := c.Stats(); stats.Requests != 3 || stats.Retries != 2 || stats.Failures != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestContextCancelStopsRetries: cancelling the caller's context aborts
// the retry loop promptly.
func TestContextCancelStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	cfg := fastConfig(srv.URL)
	cfg.MaxRetries = 1000
	cfg.BackoffBase = 50 * time.Millisecond
	cfg.BackoffMax = 50 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Status(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if stats := c.Stats(); stats.Requests > 5 {
		t.Fatalf("stats = %+v, want the cancel to stop the retry storm", stats)
	}
}

// TestTransferChunking: Entries and SubmitGradients split row sets into
// BatchSize chunks, each gradient chunk with its own batch id.
func TestTransferChunking(t *testing.T) {
	var entryCalls, gradCalls atomic.Int64
	batchIDs := make(chan string, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/entries"):
			entryCalls.Add(1)
			var req api.EntriesRequest
			if !api.DecodeJSONBody(w, r, &req) {
				return
			}
			f := api.RowFrame{Kind: api.FrameEntries, Dim: 1, Entries: make([]api.EntryResponse, len(req.Rows))}
			for i, row := range req.Rows {
				f.Entries[i] = api.EntryResponse{Row: row, Entry: []float32{1}, OK: true}
			}
			body, _ := api.AppendRowFrame(nil, f)
			w.Write(body)
		case strings.HasSuffix(r.URL.Path, "/gradients"):
			gradCalls.Add(1)
			body, _ := io.ReadAll(r.Body)
			f, err := api.DecodeRowFrame(body)
			if err != nil || f.Kind != api.FrameGradients || r.Header.Get("Content-Type") != api.RowFrameContentType {
				t.Errorf("gradient chunk is not a gradient frame: kind %d, err %v", f.Kind, err)
			}
			batchIDs <- r.Header.Get(api.BatchIDHeader)
			resp := api.GradientBatchResponse{RoundID: "r1", Results: make([]bool, len(f.Gradients))}
			json.NewEncoder(w).Encode(resp)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer srv.Close()

	cfg := fastConfig(srv.URL)
	cfg.BatchSize = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]uint64, 10)
	for i := range rows {
		rows[i] = uint64(i)
	}
	entries, err := c.Entries(context.Background(), "r1", rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 || entryCalls.Load() != 3 {
		t.Fatalf("%d entries over %d calls, want 10 over 3", len(entries), entryCalls.Load())
	}
	for i, e := range entries {
		if e.Row != rows[i] || !e.OK || len(e.Entry) != 1 || e.Entry[0] != 1 {
			t.Fatalf("entry %d = %+v, want row %d served", i, e, rows[i])
		}
	}

	grads := make([]api.GradientRequest, 10)
	for i := range grads {
		grads[i] = api.GradientRequest{Row: uint64(i), Grad: []float32{1}, Samples: 1}
	}
	results, err := c.SubmitGradients(context.Background(), "r1", grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 || gradCalls.Load() != 3 {
		t.Fatalf("%d results over %d calls, want 10 over 3", len(results), gradCalls.Load())
	}
	close(batchIDs)
	seen := map[string]bool{}
	for id := range batchIDs {
		if id == "" {
			t.Error("gradient chunk sent without batch id")
		}
		if seen[id] {
			t.Errorf("batch id %q reused across chunks", id)
		}
		seen[id] = true
	}
}

// TestEmptyBatchSendsNothing: an empty gradient or aggregate upload
// returns no results and no error without a request.
func TestEmptyBatchSendsNothing(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "unexpected request", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got, err := c.SubmitGradients(ctx, "r1", nil); err != nil || len(got) != 0 {
		t.Fatalf("empty gradients = %v, %v; want [], nil", got, err)
	}
	if got, err := c.SubmitAggregates(ctx, "r1", nil); err != nil || len(got) != 0 {
		t.Fatalf("empty aggregates = %v, %v; want [], nil", got, err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("empty batches sent %d requests", n)
	}
}

// TestBeginRoundKeyStableAcrossRetries: the idempotency key survives
// retries of one logical begin, so the server can dedup.
func TestBeginRoundKeyStableAcrossRetries(t *testing.T) {
	var calls atomic.Int64
	keys := make(chan string, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.BeginV2Request
		if !api.DecodeJSONBody(w, r, &req) {
			return
		}
		keys <- req.RoundKey
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(api.RoundInfo{RoundID: "r1", Round: 1})
	}))
	defer srv.Close()

	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.BeginRound(context.Background(), [][]uint64{{1}})
	if err != nil || info.RoundID != "r1" {
		t.Fatalf("info = %+v err = %v", info, err)
	}
	close(keys)
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	if len(got) != 2 || got[0] == "" || got[0] != got[1] {
		t.Fatalf("round keys across retries = %q, want two identical non-empty", got)
	}
}

// asAPIError is errors.As without importing errors twice in tests.
func asAPIError(err error, target **APIError) bool {
	for err != nil {
		if e, ok := err.(*APIError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestRetryAfterHonored: a 503 carrying Retry-After makes the client
// wait the server's hint — capped at BackoffMax — instead of the
// (much shorter here) exponential schedule, and counts the shed.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	var hits [2]time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			hits[n-1] = time.Now()
		}
		if n == 1 {
			w.Header().Set("Retry-After", "30") // far beyond BackoffMax
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"overloaded","message":"shed"}}`)
			return
		}
		fmt.Fprint(w, statusJSON())
	}))
	defer srv.Close()

	cfg := fastConfig(srv.URL)
	cfg.BackoffBase = time.Millisecond // exponential wait would be ~1ms
	cfg.BackoffMax = 150 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	gap := hits[1].Sub(hits[0])
	if gap < 100*time.Millisecond {
		t.Fatalf("retry gap = %v, want ≥ ~BackoffMax (Retry-After ignored?)", gap)
	}
	if total := time.Since(start); total > 5*time.Second {
		t.Fatalf("total = %v, want Retry-After capped at BackoffMax", total)
	}
	stats := c.Stats()
	if stats.Shed != 1 || stats.Retries != 1 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 shed / 1 retry / 0 failures", stats)
	}
}

// TestShedCounter: every 429/503 attempt bumps Shed, whether or not
// Retry-After was present; other failures do not.
func TestShedCounter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"throttled","message":"slow down"}}`)
		case 2:
			w.WriteHeader(http.StatusInternalServerError) // 5xx but not shed
		case 3:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			fmt.Fprint(w, statusJSON())
		}
	}))
	defer srv.Close()

	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.Shed != 2 {
		t.Fatalf("shed = %d, want 2 (429 + 503, not the plain 500)", stats.Shed)
	}
	if stats.Retries != 3 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want 3 retries / 0 failures", stats)
	}
}
