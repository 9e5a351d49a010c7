package api

import (
	"encoding/json"
	"net/http"
	"testing"
)

// doReqEpoch is doReq with the coordinator-epoch header set.
func doReqEpoch(t *testing.T, method, url, body, epoch string) (int, []byte) {
	t.Helper()
	return doReq(t, method, url, body, EpochHeader, epoch)
}

// TestEpochGateFencesStaleCoordinators is the member half of split-brain
// prevention: once a request carries epoch E, every round/admin request
// below E is rejected with 409 stale_epoch, requests at E keep working,
// and requests WITHOUT an epoch still pass (single-coordinator and
// direct-SDK traffic is unfenced).
func TestEpochGateFencesStaleCoordinators(t *testing.T) {
	srv, _ := newV2TestServer(t)

	// Epoch 5 claims the server.
	status, data := doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds", `{"requests":[[1,2]]}`, "5")
	if status != http.StatusCreated {
		t.Fatalf("begin at epoch 5: status %d body %s", status, data)
	}
	var info RoundInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}

	// /healthz reports the fenced epoch.
	status, data = doReq(t, http.MethodGet, srv.URL+"/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var hz HealthzResponse
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.FencedEpoch != 5 {
		t.Fatalf("fenced_epoch = %d, want 5", hz.FencedEpoch)
	}

	// A lower epoch is rejected on every gated route.
	status, data = doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows":[1]}`, "4")
	if status != http.StatusConflict {
		t.Fatalf("stale entries: status %d body %s", status, data)
	}
	if e := decodeErr(t, data); e.Code != CodeStaleEpoch {
		t.Fatalf("stale entries code = %q, want %q", e.Code, CodeStaleEpoch)
	}
	status, data = doReqEpoch(t, http.MethodGet, srv.URL+"/v2/admin/snapshot", "", "4")
	if status != http.StatusConflict || decodeErr(t, data).Code != CodeStaleEpoch {
		t.Fatalf("stale admin snapshot: status %d body %s", status, data)
	}

	// The same epoch and no epoch at all both pass.
	status, data = doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows":[1]}`, "5")
	if status != http.StatusOK {
		t.Fatalf("entries at epoch 5: status %d body %s", status, data)
	}
	status, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows":[2]}`)
	if status != http.StatusOK {
		t.Fatalf("entries without epoch: status %d body %s", status, data)
	}

	// A garbage header is a client bug, not a fence event.
	status, data = doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows":[1]}`, "not-a-number")
	if status != http.StatusBadRequest || decodeErr(t, data).Code != CodeInvalidArgument {
		t.Fatalf("garbage epoch: status %d body %s", status, data)
	}

	status, _ = doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "", "5")
	if status != http.StatusOK {
		t.Fatalf("finish at epoch 5: status %d", status)
	}
}

// TestEpochAdvanceAbortsOpenRound: a request at a HIGHER epoch is the
// new coordinator taking over — the old coordinator's half-open round
// is force-aborted member-side so none of its writes can land after the
// takeover.
func TestEpochAdvanceAbortsOpenRound(t *testing.T) {
	srv, ctrl := newV2TestServer(t)

	status, data := doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds", `{"requests":[[1,2]]}`, "1")
	if status != http.StatusCreated {
		t.Fatalf("begin at epoch 1: status %d body %s", status, data)
	}
	var old RoundInfo
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}

	// The successor's first call lands at epoch 2: the open round must
	// not block it, and the begin must succeed immediately.
	status, data = doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds", `{"requests":[[3]]}`, "2")
	if status != http.StatusCreated {
		t.Fatalf("begin at epoch 2 with epoch-1 round open: status %d body %s", status, data)
	}

	// The old coordinator's round is dead: writes against it fail, and
	// they fail as ROUND errors (the round was aborted), with the stale
	// epoch also rejected at the gate.
	status, data = doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds/"+old.RoundID+"/gradients", gradsBody(1, 1, 1), "1")
	if status != http.StatusConflict || decodeErr(t, data).Code != CodeStaleEpoch {
		t.Fatalf("old-round gradients after takeover: status %d body %s", status, data)
	}
	// Even a request that somehow carries the NEW epoch cannot write to
	// the aborted round.
	status, data = doReqEpoch(t, http.MethodPost, srv.URL+"/v2/rounds/"+old.RoundID+"/gradients", gradsBody(1, 1, 1), "2")
	if status == http.StatusOK {
		t.Fatalf("aborted round accepted gradients: body %s", data)
	}

	if got := ctrl.Round(); got != 2 {
		t.Fatalf("controller round = %d, want 2 (epoch-2 begin went through)", got)
	}
}
