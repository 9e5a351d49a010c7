package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fdp"
	"repro/internal/fedora"
)

func newV2TestServer(t *testing.T, opts ...Option) (*httptest.Server, *fedora.Controller) {
	t.Helper()
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ctrl, opts...).Handler())
	t.Cleanup(srv.Close)
	return srv, ctrl
}

// httpDo performs one HTTP request and returns status + body. The
// content type follows the body — a row frame (gradsBody, aggsBody) or
// JSON; hdr is extra header name/value pairs. It reports failures as an
// error so goroutines other than the test's own can use it.
func httpDo(method, url, body string, hdr ...string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	switch {
	case strings.HasPrefix(body, frameMagic):
		req.Header.Set("Content-Type", RowFrameContentType)
	case body != "":
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// doReq is httpDo for the test's own goroutine.
func doReq(t *testing.T, method, url, body string, hdr ...string) (int, []byte) {
	t.Helper()
	status, data, err := httpDo(method, url, body, hdr...)
	if err != nil {
		t.Fatal(err)
	}
	return status, data
}

// gradsBody is a gradient row frame at the test servers' dim 4: one
// all-v gradient with the given sample count per row.
func gradsBody(v float32, samples int, rows ...uint64) string {
	f := RowFrame{Kind: FrameGradients, Dim: 4}
	for _, row := range rows {
		f.Gradients = append(f.Gradients, GradientRequest{Row: row, Grad: []float32{v, v, v, v}, Samples: samples})
	}
	return frameBody(f)
}

// aggsBody is gradsBody for already-summed aggregates of count 1.
func aggsBody(v float32, rows ...uint64) string {
	f := RowFrame{Kind: FrameAggregates, Dim: 4}
	for _, row := range rows {
		f.Aggregates = append(f.Aggregates, AggregateRequest{Row: row, Sum: []float32{v, v, v, v}, Count: 1})
	}
	return frameBody(f)
}

func frameBody(f RowFrame) string {
	b, err := AppendRowFrame(nil, f)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// entriesOf decodes an /entries reply.
func entriesOf(data []byte) ([]EntryResponse, error) {
	f, err := DecodeRowFrame(data)
	if err == nil && f.Kind != FrameEntries {
		err = fmt.Errorf("reply frame kind %d, want entries", f.Kind)
	}
	return f.Entries, err
}

// decodeErr parses a v2 error envelope.
func decodeErr(t *testing.T, data []byte) ErrorBody {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("not an error envelope: %q (%v)", data, err)
	}
	return env.Error
}

func beginV2(t *testing.T, base string, body string) RoundInfo {
	t.Helper()
	status, data := doReq(t, http.MethodPost, base+"/v2/rounds", body)
	if status != http.StatusCreated {
		t.Fatalf("begin: status %d body %s", status, data)
	}
	var info RoundInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestV2FullBatchedRound(t *testing.T) {
	srv, ctrl := newV2TestServer(t)

	info := beginV2(t, srv.URL, `{"requests":[[5,9],[9,12]]}`)
	if info.RoundID == "" || info.Round != 1 || info.Finished {
		t.Fatalf("begin info = %+v", info)
	}

	// Batched download: all three unique rows in one request.
	status, data := doReq(t, http.MethodPost,
		srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows":[5,9,12]}`)
	if status != http.StatusOK {
		t.Fatalf("entries: status %d body %s", status, data)
	}
	entries, err := entriesOf(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %+v", entries)
	}
	for i, want := range []uint64{5, 9, 12} {
		e := entries[i]
		if e.Row != want || !e.OK || len(e.Entry) != 4 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}

	// Batched upload: both clients' gradients, one request each.
	for _, rows := range [][]uint64{{5, 9}, {9, 12}} {
		status, data = doReq(t, http.MethodPost,
			srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", gradsBody(1, 1, rows...))
		if status != http.StatusOK {
			t.Fatalf("gradients: status %d body %s", status, data)
		}
		var resp GradientBatchResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Delivered != len(rows) || resp.Dropped != 0 {
			t.Fatalf("gradients resp = %+v", resp)
		}
	}

	status, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
	if status != http.StatusOK {
		t.Fatalf("finish: status %d body %s", status, data)
	}
	var done RoundInfo
	if err := json.Unmarshal(data, &done); err != nil {
		t.Fatal(err)
	}
	if !done.Finished || done.Expired || done.Stats == nil {
		t.Fatalf("finish info = %+v", done)
	}
	if done.Stats.K != 4 {
		t.Errorf("stats = %+v", done.Stats)
	}

	// Row 9 averaged gradient 1 from two clients.
	row9, err := ctrl.PeekRow(9)
	if err != nil {
		t.Fatal(err)
	}
	if row9[0] != -1 {
		t.Errorf("row9[0] = %v, want -1", row9[0])
	}

	// GET round info replays the finished state.
	status, data = doReq(t, http.MethodGet, srv.URL+"/v2/rounds/"+info.RoundID, "")
	if status != http.StatusOK {
		t.Fatalf("round info: status %d body %s", status, data)
	}
	var replay RoundInfo
	if err := json.Unmarshal(data, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Finished || replay.Stats == nil || replay.Stats.K != 4 {
		t.Fatalf("replayed info = %+v", replay)
	}
}

// TestV2ErrorTable exercises every v2 endpoint's error paths: wrong
// verb, malformed JSON, bad arguments, unknown rounds/rows.
func TestV2ErrorTable(t *testing.T) {
	srv, _ := newV2TestServer(t)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"status wrong verb", "POST", "/v2/status", "", 405, CodeMethodNotAllowed},
		{"begin wrong verb", "GET", "/v2/rounds", "", 405, CodeMethodNotAllowed},
		{"begin bad json", "POST", "/v2/rounds", "{", 400, CodeBadJSON},
		{"begin no requests", "POST", "/v2/rounds", `{"requests":[]}`, 400, CodeInvalidArgument},
		{"begin row out of range", "POST", "/v2/rounds", `{"requests":[[99999]]}`, 400, CodeInvalidArgument},
		{"round info wrong verb", "POST", "/v2/rounds/r1", "", 405, CodeMethodNotAllowed},
		{"round info unknown", "GET", "/v2/rounds/nope", "", 404, CodeRoundNotFound},
		{"entries wrong verb", "GET", "/v2/rounds/r1/entries", "", 405, CodeMethodNotAllowed},
		{"entries unknown round", "POST", "/v2/rounds/nope/entries", `{"rows":[1]}`, 404, CodeRoundNotFound},
		{"gradients wrong verb", "GET", "/v2/rounds/r1/gradients", "", 405, CodeMethodNotAllowed},
		{"gradients unknown round", "POST", "/v2/rounds/nope/gradients", gradsBody(1, 1), 404, CodeRoundNotFound},
		{"finish wrong verb", "GET", "/v2/rounds/r1/finish", "", 405, CodeMethodNotAllowed},
		{"finish unknown round", "POST", "/v2/rounds/nope/finish", "", 404, CodeRoundNotFound},
		{"row wrong verb", "POST", "/v2/rows/3", "", 405, CodeMethodNotAllowed},
		{"row out of range", "GET", "/v2/rows/99999", "", 404, CodeRowNotFound},
		{"row not a number", "GET", "/v2/rows/abc", "", 400, CodeInvalidArgument},
		{"unknown route", "GET", "/v2/frobnicate", "", 404, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := doReq(t, tc.method, srv.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, data)
			}
			if got := decodeErr(t, data).Code; got != tc.wantCode {
				t.Fatalf("code = %q, want %q (body %s)", got, tc.wantCode, data)
			}
		})
	}

	// Error paths that need an open round.
	info := beginV2(t, srv.URL, `{"requests":[[1,2]]}`)
	roundCases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"second begin conflicts", "POST", "/v2/rounds", `{"requests":[[3]]}`, 409, CodeRoundInProgress},
		{"entries bad json", "POST", "/v2/rounds/" + info.RoundID + "/entries", "{", 400, CodeBadJSON},
		{"entries row out of range", "POST", "/v2/rounds/" + info.RoundID + "/entries", `{"rows":[99999]}`, 400, CodeInvalidArgument},
		{"gradients bad json", "POST", "/v2/rounds/" + info.RoundID + "/gradients", "{", 415, CodeUnsupportedMedia},
		{"gradients as json", "POST", "/v2/rounds/" + info.RoundID + "/gradients",
			`{"gradients":[{"row":1,"grad":[1,1,1,1],"samples":1}]}`, 415, CodeUnsupportedMedia},
		{"gradients without a content type", "POST", "/v2/rounds/" + info.RoundID + "/gradients", "", 415, CodeUnsupportedMedia},
		{"gradients torn frame", "POST", "/v2/rounds/" + info.RoundID + "/gradients",
			gradsBody(1, 1, 1)[:20], 400, CodeInvalidArgument},
		{"gradients zero samples", "POST", "/v2/rounds/" + info.RoundID + "/gradients",
			gradsBody(1, 0, 1), 400, CodeInvalidArgument},
		{"gradients row out of range", "POST", "/v2/rounds/" + info.RoundID + "/gradients",
			gradsBody(1, 1, 99999), 400, CodeInvalidArgument},
		{"gradients entries frame", "POST", "/v2/rounds/" + info.RoundID + "/gradients",
			frameBody(RowFrame{Kind: FrameEntries, Dim: 4, Entries: []EntryResponse{{Row: 1}}}), 400, CodeInvalidArgument},
	}
	for _, tc := range roundCases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := doReq(t, tc.method, srv.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, data)
			}
			if got := decodeErr(t, data).Code; got != tc.wantCode {
				t.Fatalf("code = %q, want %q (body %s)", got, tc.wantCode, data)
			}
		})
	}

	// Operations against a finished round: 409 round_finished; finish
	// itself is idempotent.
	if status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", ""); status != 200 {
		t.Fatalf("finish: %d %s", status, data)
	}
	finishedCases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"entries after finish", "POST", "/v2/rounds/" + info.RoundID + "/entries", `{"rows":[1]}`},
		{"gradients after finish", "POST", "/v2/rounds/" + info.RoundID + "/gradients", gradsBody(1, 1, 1)},
	}
	for _, tc := range finishedCases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := doReq(t, tc.method, srv.URL+tc.path, tc.body)
			if status != 409 {
				t.Fatalf("status = %d, want 409 (body %s)", status, data)
			}
			if got := decodeErr(t, data).Code; got != CodeRoundFinished {
				t.Fatalf("code = %q, want %q", got, CodeRoundFinished)
			}
		})
	}
	status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
	if status != http.StatusOK {
		t.Fatalf("repeated finish: status %d body %s", status, data)
	}
	var replay RoundInfo
	if err := json.Unmarshal(data, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Finished || replay.Stats == nil {
		t.Fatalf("repeated finish info = %+v", replay)
	}
}

func TestV2MethodNotAllowedSetsAllow(t *testing.T) {
	srv, _ := newV2TestServer(t)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/rounds", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("status %d Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestV2RoundKeyIdempotent(t *testing.T) {
	srv, _ := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[1,2]],"round_key":"abc"}`)

	// A retried begin with the same key returns the SAME round with 200
	// instead of conflicting — even while the round is open.
	status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds", `{"requests":[[1,2]],"round_key":"abc"}`)
	if status != http.StatusOK {
		t.Fatalf("retried begin: status %d body %s", status, data)
	}
	var again RoundInfo
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if again.RoundID != info.RoundID {
		t.Fatalf("retried begin round %q, want %q", again.RoundID, info.RoundID)
	}

	// A DIFFERENT key still conflicts while the round is open.
	status, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds", `{"requests":[[1,2]],"round_key":"other"}`)
	if status != http.StatusConflict {
		t.Fatalf("different-key begin: status %d body %s", status, data)
	}

	// After finish, the original key still resolves to the old round.
	doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
	status, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds", `{"requests":[[1,2]],"round_key":"abc"}`)
	if status != http.StatusOK {
		t.Fatalf("post-finish same-key begin: status %d body %s", status, data)
	}
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if again.RoundID != info.RoundID || !again.Finished {
		t.Fatalf("post-finish same-key info = %+v", again)
	}
}

// TestV2GradientBatchDedup proves a retried batch id is applied at most
// once: the duplicate gets the recorded response, and the aggregated
// model reflects a single application.
func TestV2GradientBatchDedup(t *testing.T) {
	srv, ctrl := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[7],[7]]}`)

	// Client A uploads 4s, client B uploads 0s; if B's batch were
	// double-applied the average would shift from (4+0)/2 = 2 to
	// (4+0+0)/3 ≈ 1.33.
	bodyA, bodyB := gradsBody(4, 1, 7), gradsBody(0, 1, 7)
	for id, body := range map[string]string{"batch-A": bodyA, "batch-B": bodyB} {
		if status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", body, BatchIDHeader, id); status != 200 {
			t.Fatalf("upload: %d %s", status, data)
		}
	}
	// Retry batch B.
	status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", bodyB, BatchIDHeader, "batch-B")
	if status != http.StatusOK {
		t.Fatalf("duplicate upload: %d %s", status, data)
	}
	var dup GradientBatchResponse
	if err := json.Unmarshal(data, &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate || dup.Delivered != 1 || len(dup.Results) != 1 || !dup.Results[0] {
		t.Fatalf("duplicate resp = %+v", dup)
	}

	doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
	row7, err := ctrl.PeekRow(7)
	if err != nil {
		t.Fatal(err)
	}
	if row7[0] != -2 {
		t.Errorf("row7[0] = %v, want -2 (single application of the retried batch)", row7[0])
	}
}

// TestV2ConcurrentDuplicateBatch hammers the in-flight reservation: two
// identical batches race; exactly one applies, the other replays.
func TestV2ConcurrentDuplicateBatch(t *testing.T) {
	srv, _ := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[3]]}`)
	body := gradsBody(1, 1, 3)

	var wg sync.WaitGroup
	resps := make([]GradientBatchResponse, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, data, err := httpDo(http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", body, BatchIDHeader, "race")
			if err != nil || status != http.StatusOK {
				t.Errorf("racer %d: status %d body %s err %v", i, status, data, err)
				return
			}
			if err := json.Unmarshal(data, &resps[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if resps[0].Duplicate == resps[1].Duplicate {
		t.Fatalf("want exactly one duplicate, got %+v and %+v", resps[0], resps[1])
	}
}

// TestV2DeadlineExpiry: a round with a deadline finishes on its own
// with the gradients that made it in time; later uploads are rejected
// and finish replays the recorded (expired) outcome.
func TestV2DeadlineExpiry(t *testing.T) {
	srv, _ := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[1,2]],"deadline_ms":50}`)
	if info.DeadlineMS != 50 {
		t.Fatalf("info = %+v", info)
	}

	// This gradient lands before the deadline.
	status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", gradsBody(1, 1, 1))
	if status != http.StatusOK {
		t.Fatalf("pre-deadline upload: %d %s", status, data)
	}

	// Wait for the server to expire the round.
	deadline := time.Now().Add(5 * time.Second)
	var expired RoundInfo
	for {
		status, data = doReq(t, http.MethodGet, srv.URL+"/v2/rounds/"+info.RoundID, "")
		if status != http.StatusOK {
			t.Fatalf("round info: %d %s", status, data)
		}
		if err := json.Unmarshal(data, &expired); err != nil {
			t.Fatal(err)
		}
		if expired.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round never expired: %+v", expired)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !expired.Expired || expired.Stats == nil {
		t.Fatalf("expired info = %+v", expired)
	}

	// Straggler upload after expiry is rejected.
	status, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", gradsBody(1, 1, 2))
	if status != 409 || decodeErr(t, data).Code != CodeRoundFinished {
		t.Fatalf("straggler: %d %s", status, data)
	}

	// Explicit finish is a no-op replay; the round stays marked expired.
	status, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
	if status != http.StatusOK {
		t.Fatalf("finish after expiry: %d %s", status, data)
	}
	var replay RoundInfo
	if err := json.Unmarshal(data, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Expired || replay.Stats == nil {
		t.Fatalf("replay = %+v", replay)
	}

	// A new round can begin.
	beginV2(t, srv.URL, `{"requests":[[5]]}`)
}

// TestMetricsReadableMidRound guards the mutex fix: /metrics and the
// status endpoint answer while a round is open.
func TestMetricsReadableMidRound(t *testing.T) {
	srv, _ := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[1,2],[2,3]]}`)

	for _, path := range []string{"/metrics", "/v2/status"} {
		status, data := doReq(t, http.MethodGet, srv.URL+path, "")
		if status != http.StatusOK {
			t.Fatalf("%s mid-round: status %d body %s", path, status, data)
		}
	}
	status, data := doReq(t, http.MethodGet, srv.URL+"/metrics", "")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	if !strings.Contains(string(data), "fedora_round_in_progress 1") {
		t.Errorf("metrics mid-round missing in-progress gauge:\n%s", data)
	}

	// v2 status names the open round.
	status, data = doReq(t, http.MethodGet, srv.URL+"/v2/status", "")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	var st StatusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if !st.RoundInProgress || st.CurrentRoundID != info.RoundID {
		t.Fatalf("status = %+v", st)
	}

	doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
}

// TestHTTPMetricsExported checks the per-endpoint counters and latency
// histograms land on /metrics.
func TestHTTPMetricsExported(t *testing.T) {
	srv, _ := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[1]]}`)
	doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows":[1]}`)
	doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
	doReq(t, http.MethodGet, srv.URL+"/v2/rounds/nope", "") // a 404 to count

	_, data := doReq(t, http.MethodGet, srv.URL+"/metrics", "")
	text := string(data)
	for _, want := range []string{
		`fedora_http_requests_total{endpoint="v2_begin",code="201"} 1`,
		`fedora_http_requests_total{endpoint="v2_entries",code="200"} 1`,
		`fedora_http_requests_total{endpoint="v2_finish",code="200"} 1`,
		`fedora_http_requests_total{endpoint="v2_round_info",code="404"} 1`,
		`fedora_http_request_duration_seconds_bucket{endpoint="v2_entries",le="+Inf"} 1`,
		`fedora_http_request_duration_seconds_count{endpoint="v2_entries"} 1`,
		"# TYPE fedora_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
