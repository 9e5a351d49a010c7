package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fdp"
	"repro/internal/fedora"
)

// newStageTestServer serves a prefetch-enabled controller, so staged
// rounds actually kick a background fetcher between finish and the next
// begin (the two-phase contract the stage endpoint exists for).
func newStageTestServer(t *testing.T) (*httptest.Server, *fedora.Controller) {
	t.Helper()
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 1, Seed: 1, Prefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ctrl).Handler())
	t.Cleanup(srv.Close)
	return srv, ctrl
}

// stage posts to the stage endpoint and decodes the response on 200.
func stage(t *testing.T, base, roundID, body string) (int, StageV2Response, []byte) {
	t.Helper()
	status, data := doReq(t, http.MethodPost, base+"/v2/rounds/"+roundID+"/stage", body)
	var resp StageV2Response
	if status == http.StatusOK {
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("stage response: %q (%v)", data, err)
		}
	}
	return status, resp, data
}

// finishV2 closes a round over HTTP.
func finishV2(t *testing.T, base, roundID string) RoundInfo {
	t.Helper()
	status, data := doReq(t, http.MethodPost, base+"/v2/rounds/"+roundID+"/finish", "")
	if status != http.StatusOK {
		t.Fatalf("finish: status %d body %s", status, data)
	}
	var info RoundInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestV2StageLifecycle drives the two-phase contract over HTTP: stage
// while the addressed round is open (queues), stage-key dedup, mismatch
// rejection, adoption by the next begin, and the superseded-round 409.
func TestV2StageLifecycle(t *testing.T) {
	srv, _ := newStageTestServer(t)

	r1 := beginV2(t, srv.URL, `{"requests":[[5,9],[9,12]]}`)

	// Stage the NEXT round against the open round: accepted and queued.
	next := `{"requests":[[7,21],[100]],"stage_key":"k1"}`
	status, resp, data := stage(t, srv.URL, r1.RoundID, next)
	if status != http.StatusOK || !resp.Staged || resp.Duplicate {
		t.Fatalf("stage: status %d resp %+v body %s", status, resp, data)
	}

	// Retrying the same stage_key replays the response as a duplicate.
	status, resp, data = stage(t, srv.URL, r1.RoundID, next)
	if status != http.StatusOK || !resp.Staged || !resp.Duplicate {
		t.Fatalf("stage replay: status %d resp %+v body %s", status, resp, data)
	}

	// A conflicting stage (different lists, new key) is a 409 mismatch.
	status, _, data = stage(t, srv.URL, r1.RoundID, `{"requests":[[8]],"stage_key":"k2"}`)
	if status != http.StatusConflict {
		t.Fatalf("conflicting stage: status %d body %s", status, data)
	}
	if eb := decodeErr(t, data); eb.Code != CodeStageMismatch {
		t.Fatalf("conflicting stage code = %q, want %q", eb.Code, CodeStageMismatch)
	}

	finishV2(t, srv.URL, r1.RoundID)

	// The staged lists are adopted by the next begin (same lists).
	r2 := beginV2(t, srv.URL, `{"requests":[[7,21],[100]]}`)
	if r2.Round != 2 {
		t.Fatalf("round 2 info = %+v", r2)
	}

	// Staging against the superseded round 1 is a 409 stage_conflict.
	status, _, data = stage(t, srv.URL, r1.RoundID, `{"requests":[[3]]}`)
	if status != http.StatusConflict {
		t.Fatalf("superseded stage: status %d body %s", status, data)
	}
	if eb := decodeErr(t, data); eb.Code != CodeStageConflict {
		t.Fatalf("superseded stage code = %q, want %q", eb.Code, CodeStageConflict)
	}

	finishV2(t, srv.URL, r2.RoundID)
}

// TestV2StageValidation covers the request-shape error paths.
func TestV2StageValidation(t *testing.T) {
	srv, _ := newStageTestServer(t)
	r1 := beginV2(t, srv.URL, `{"requests":[[5]]}`)

	status, _, data := stage(t, srv.URL, r1.RoundID, `{"requests":[]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("empty stage: status %d body %s", status, data)
	}
	status, _, data = stage(t, srv.URL, r1.RoundID, `{"requests":[[9999]]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("out-of-range stage: status %d body %s", status, data)
	}
	status, _, data = stage(t, srv.URL, "nope", `{"requests":[[5]]}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown round stage: status %d body %s", status, data)
	}
	// Too many clients fails fedora-side validation as a 400.
	lists := make([]string, 9)
	for i := range lists {
		lists[i] = `[1]`
	}
	status, _, data = stage(t, srv.URL, r1.RoundID,
		`{"requests":[`+strings.Join(lists, ",")+`]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized stage: status %d body %s", status, data)
	}
	finishV2(t, srv.URL, r1.RoundID)
}

// TestV2StageNextHint: the optional stage_next field on round creation
// stages the following round in the same request, and the staged reads
// serve round 2 from the prefetch buffer. The hit count is secret-derived
// (k_sampled − dummy), so it is read off the controller, not the API.
func TestV2StageNextHint(t *testing.T) {
	srv, ctrl := newStageTestServer(t)

	r1 := beginV2(t, srv.URL, `{"requests":[[5,9]],"stage_next":[[7,21]]}`)
	finishV2(t, srv.URL, r1.RoundID)

	r2 := beginV2(t, srv.URL, `{"requests":[[7,21]]}`)
	status, data := doReq(t, http.MethodPost,
		srv.URL+"/v2/rounds/"+r2.RoundID+"/entries", `{"rows":[7,21]}`)
	if status != http.StatusOK {
		t.Fatalf("entries: status %d body %s", status, data)
	}
	info := finishV2(t, srv.URL, r2.RoundID)
	if info.Stats == nil || !info.Stats.Prefetched {
		t.Fatalf("round 2 stats = %+v, want prefetched", info.Stats)
	}
	if rep := ctrl.PrefetchReport(); rep.Hits == 0 {
		t.Errorf("prefetch report = %+v, want staged rows served", rep)
	}
}
