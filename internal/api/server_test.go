package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fedora"
)

func newTestServer(t *testing.T) (string, *fedora.Controller) {
	t.Helper()
	srv, ctrl := newV2TestServer(t)
	return srv.URL, ctrl
}

// serveRow downloads one row of an open round. Like submitRow it
// reports failures as an error, for goroutines other than the test's own.
func serveRow(base, roundID string, row uint64) (EntryResponse, error) {
	status, data, err := httpDo(http.MethodPost, base+"/v2/rounds/"+roundID+"/entries", fmt.Sprintf(`{"rows":[%d]}`, row))
	if err != nil || status != http.StatusOK {
		return EntryResponse{}, fmt.Errorf("entries for row %d: status %d err %v", row, status, err)
	}
	entries, err := entriesOf(data)
	if err != nil {
		return EntryResponse{}, err
	}
	if len(entries) != 1 || entries[0].Row != row {
		return EntryResponse{}, fmt.Errorf("entries for row %d = %+v", row, entries)
	}
	return entries[0], nil
}

// submitRow uploads an all-ones dim-4 gradient for one row and reports
// whether it was delivered.
func submitRow(base, roundID string, row uint64) (bool, error) {
	status, data, err := httpDo(http.MethodPost, base+"/v2/rounds/"+roundID+"/gradients", gradsBody(1, 1, row))
	if err != nil || status != http.StatusOK {
		return false, fmt.Errorf("gradient for row %d: status %d err %v", row, status, err)
	}
	var out GradientBatchResponse
	err = json.Unmarshal(data, &out)
	return out.Delivered == 1, err
}

// wantErr asserts one request fails with the given status and envelope
// code.
func wantErr(t *testing.T, method, url, body string, status int, code string) {
	t.Helper()
	got, data := doReq(t, method, url, body)
	if got != status {
		t.Errorf("%s %s: status %d, want %d (body %s)", method, url, got, status, data)
		return
	}
	if c := decodeErr(t, data).Code; c != code {
		t.Errorf("%s %s: code %q, want %q", method, url, c, code)
	}
}

func getStatus(t *testing.T, base string) StatusResponse {
	t.Helper()
	status, data := doReq(t, http.MethodGet, base+"/v2/status", "")
	if status != http.StatusOK {
		t.Fatalf("status: %d %s", status, data)
	}
	var st StatusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFullRoundOverHTTP(t *testing.T) {
	base, ctrl := newTestServer(t)

	if st := getStatus(t, base); st.Backend != "fedora" || st.RoundInProgress {
		t.Errorf("status = %+v", st)
	}

	info := beginV2(t, base, `{"requests":[[5,9],[9,12]]}`)
	for _, row := range []uint64{5, 9, 12} {
		e, err := serveRow(base, info.RoundID, row)
		if err != nil || !e.OK {
			t.Fatalf("row %d: %+v err=%v", row, e, err)
		}
		if len(e.Entry) != 4 {
			t.Fatalf("entry dim = %d", len(e.Entry))
		}
		delivered, err := submitRow(base, info.RoundID, row)
		if err != nil || !delivered {
			t.Fatalf("gradient row %d: %v %v", row, delivered, err)
		}
	}
	done := finishV2(t, base, info.RoundID)
	if done.Stats == nil || done.Stats.K != 4 || done.Stats.KSampled != 3 {
		t.Errorf("stats = %+v", done.Stats)
	}

	// The update took effect: rows 5, 9 and 12 each got one gradient of 1.
	row9, err := ctrl.PeekRow(9)
	if err != nil {
		t.Fatal(err)
	}
	if row9[0] != -1 {
		t.Errorf("row9[0] = %v, want -1", row9[0])
	}
}

func TestDoubleBeginRejected(t *testing.T) {
	base, _ := newTestServer(t)
	info := beginV2(t, base, `{"requests":[[1]]}`)
	wantErr(t, http.MethodPost, base+"/v2/rounds", `{"requests":[[2]]}`,
		http.StatusConflict, CodeRoundInProgress)
	finishV2(t, base, info.RoundID)
	beginV2(t, base, `{"requests":[[2]]}`)
}

func TestOperationsWithoutRoundRejected(t *testing.T) {
	base, _ := newTestServer(t)
	// No round was ever begun, so no id resolves.
	wantErr(t, http.MethodPost, base+"/v2/rounds/r1/entries", `{"rows":[1]}`,
		http.StatusNotFound, CodeRoundNotFound)
	wantErr(t, http.MethodPost, base+"/v2/rounds/r1/gradients", gradsBody(0, 1, 1),
		http.StatusNotFound, CodeRoundNotFound)
	wantErr(t, http.MethodPost, base+"/v2/rounds/r1/finish", "",
		http.StatusNotFound, CodeRoundNotFound)
}

func TestBadRequests(t *testing.T) {
	base, _ := newTestServer(t)

	wantErr(t, http.MethodPost, base+"/v2/rounds", "{", http.StatusBadRequest, CodeBadJSON)
	wantErr(t, http.MethodPost, base+"/v2/rounds", `{"requests":[]}`,
		http.StatusBadRequest, CodeInvalidArgument)
	wantErr(t, http.MethodPost, base+"/v2/rounds", `{"requests":[[999999]]}`,
		http.StatusBadRequest, CodeInvalidArgument)
	wantErr(t, http.MethodGet, base+"/v2/rounds", "",
		http.StatusMethodNotAllowed, CodeMethodNotAllowed)

	info := beginV2(t, base, `{"requests":[[1]]}`)
	round := base + "/v2/rounds/" + info.RoundID
	// A row that is not a number.
	wantErr(t, http.MethodPost, round+"/entries", `{"rows":["abc"]}`,
		http.StatusBadRequest, CodeBadJSON)
	// Non-positive samples.
	wantErr(t, http.MethodPost, round+"/gradients", gradsBody(0, 0, 1),
		http.StatusBadRequest, CodeInvalidArgument)
}

func TestLostEntryOverHTTP(t *testing.T) {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: 0.0001,
		MaxClientsPerRound: 4, MaxFeaturesPerClient: 16, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ctrl).Handler())
	defer srv.Close()

	sawLost := false
	for round := 0; round < 10 && !sawLost; round++ {
		rows := make([]string, 16)
		for i := range rows {
			rows[i] = fmt.Sprint(round*16 + i)
		}
		list := strings.Join(rows, ",")
		info := beginV2(t, srv.URL, `{"requests":[[`+list+`]]}`)
		_, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/entries", `{"rows":[`+list+`]}`)
		entries, err := entriesOf(data)
		if err != nil || len(entries) != len(rows) {
			t.Fatalf("%d entries, err %v", len(entries), err)
		}
		for _, e := range entries {
			if !e.OK {
				sawLost = true
			}
		}
		finishV2(t, srv.URL, info.RoundID)
	}
	if !sawLost {
		t.Error("tiny epsilon never lost an entry over HTTP")
	}
}

func TestConcurrentEntryRequests(t *testing.T) {
	base, _ := newTestServer(t)
	rows := []uint64{1, 2, 3, 4, 5, 6}
	info := beginV2(t, base, `{"requests":[[1,2,3],[4,5,6]]}`)
	// Many clients hammer the serve endpoint concurrently; the server
	// serializes access to the single trusted controller.
	errCh := make(chan error, 24)
	for g := 0; g < 24; g++ {
		go func(g int) {
			row := rows[g%len(rows)]
			e, err := serveRow(base, info.RoundID, row)
			if err == nil && !e.OK {
				err = fmt.Errorf("row %d not resident", row)
			}
			errCh <- err
		}(g)
	}
	for g := 0; g < 24; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	finishV2(t, base, info.RoundID)
}

func TestMetricsEndpoint(t *testing.T) {
	base, _ := newTestServer(t)
	info := beginV2(t, base, `{"requests":[[1,2]]}`)
	finishV2(t, base, info.RoundID)
	status, data := doReq(t, http.MethodGet, base+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	out := string(data)
	for _, want := range []string{
		"fedora_rounds_total 1",
		"fedora_round_in_progress 0",
		"fedora_ssd_bytes_read_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// v1Paths are the five routes of the per-row protocol removed in PR 21.
var v1Paths = []string{
	"/v1/status", "/v1/rounds", "/v1/rounds/current/entry?row=1",
	"/v1/rounds/current/gradient", "/v1/rounds/current/finish",
}

// TestV1Gone: every former /v1 path answers the mux's plain 404 under
// either verb, and /metrics carries no v1 endpoint label.
func TestV1Gone(t *testing.T) {
	base, _ := newTestServer(t)
	for _, path := range v1Paths {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if status, data := doReq(t, method, base+path, ""); status != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404 (body %s)", method, path, status, data)
			}
		}
	}
	_, data := doReq(t, http.MethodGet, base+"/metrics", "")
	if strings.Contains(string(data), `endpoint="v1_`) {
		t.Errorf("/metrics still labels a v1 endpoint:\n%s", data)
	}
}
