package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/wire"
)

// wirePost sends one binary wire payload to the gradients endpoint.
func wirePost(t *testing.T, url, batchID string, payload []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", WireContentType)
	if batchID != "" {
		req.Header.Set(BatchIDHeader, batchID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestWireUploadUnmaskRound drives the binary upload path end to end at
// the HTTP layer: the content type picking the path on the gradients endpoint,
// batch-id dedup of a replayed payload, the unmask round applying the
// reconstructed sums, unmask idempotency, and the /metrics counters.
func TestWireUploadUnmaskRound(t *testing.T) {
	srv, _ := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[5,9],[9,12]]}`)
	gradURL := srv.URL + "/v2/rounds/" + info.RoundID + "/gradients"

	plan, err := wire.NewPlan(wire.Params{
		Codec: wire.CodecMaskedSparse, NumRows: 1024, Dim: 4,
		Round: info.Round, Roster: 2,
		SessionKey: wire.DeriveSessionKey(1, info.Round),
	}, []uint64{5, 9, 12})
	if err != nil {
		t.Fatal(err)
	}
	one := []float32{1, 1, 1, 1}
	payloads := make([][]byte, 2)
	for i, rows := range [][]uint64{{5, 9}, {9, 12}} {
		payloads[i], _, err = plan.Encode(i, rows, [][]float32{one, one}, 1)
		if err != nil {
			t.Fatal(err)
		}
		status, data := wirePost(t, gradURL, "b"+string(rune('0'+i)), payloads[i])
		if status != http.StatusOK {
			t.Fatalf("upload %d: status %d body %s", i, status, data)
		}
		var resp GradientBatchResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Duplicate || resp.Delivered != 1 {
			t.Fatalf("upload %d: %+v", i, resp)
		}
	}

	// A replayed upload (same batch id) is absorbed, not double-counted.
	status, data := wirePost(t, gradURL, "b0", payloads[0])
	if status != http.StatusOK {
		t.Fatalf("replay: status %d body %s", status, data)
	}
	var replay GradientBatchResponse
	if err := json.Unmarshal(data, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Duplicate {
		t.Fatalf("replay not deduped: %+v", replay)
	}

	// Unmask (no dropouts: zero reveals) applies the per-row sums.
	unmaskURL := srv.URL + "/v2/rounds/" + info.RoundID + "/unmask"
	status, data = doReq(t, http.MethodPost, unmaskURL, `{"reveals":[]}`)
	if status != http.StatusOK {
		t.Fatalf("unmask: status %d body %s", status, data)
	}
	var um UnmaskResponse
	if err := json.Unmarshal(data, &um); err != nil {
		t.Fatal(err)
	}
	if um.Duplicate || um.Codec != string(wire.CodecMaskedSparse) || um.Rows != 3 || um.Delivered != 3 {
		t.Fatalf("unmask = %+v", um)
	}

	// A retried unmask replays the recorded outcome.
	status, data = doReq(t, http.MethodPost, unmaskURL, `{"reveals":[]}`)
	if status != http.StatusOK {
		t.Fatalf("unmask retry: status %d body %s", status, data)
	}
	var um2 UnmaskResponse
	if err := json.Unmarshal(data, &um2); err != nil {
		t.Fatal(err)
	}
	if !um2.Duplicate || um2.Rows != um.Rows {
		t.Fatalf("unmask retry = %+v", um2)
	}

	status, data = doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/finish", "")
	if status != http.StatusOK {
		t.Fatalf("finish: status %d body %s", status, data)
	}
	var done RoundInfo
	if err := json.Unmarshal(data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Stats == nil || done.Stats.WireBytes == 0 {
		t.Fatalf("finished stats missing wire bytes: %+v", done.Stats)
	}

	status, data = doReq(t, http.MethodGet, srv.URL+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	metrics := string(data)
	for _, want := range []string{
		"fedora_wire_bytes_total",
		`fedora_wire_uploads_total{codec="masked-sparse"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestWireUploadPolicy: a server pinned to a codec rejects mismatched
// wire payloads and plain gradient frames but keeps accepting aggregate
// frames (coordinator fan-out of already-summed values).
func TestWireUploadPolicy(t *testing.T) {
	srv, _ := newV2TestServer(t, WithUploadCodec(wire.CodecMasked))
	info := beginV2(t, srv.URL, `{"requests":[[5,9]]}`)
	gradURL := srv.URL + "/v2/rounds/" + info.RoundID + "/gradients"

	plan, err := wire.NewPlan(wire.Params{
		Codec: wire.CodecPlaintext, NumRows: 1024, Dim: 4,
		Round: info.Round, Roster: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := plan.Encode(0, []uint64{5}, [][]float32{{1, 1, 1, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if status, data := wirePost(t, gradURL, "p0", payload); status != http.StatusBadRequest {
		t.Fatalf("mismatched codec accepted: status %d body %s", status, data)
	}
	status, data := doReq(t, http.MethodPost, gradURL, gradsBody(1, 1, 5))
	if status != http.StatusBadRequest {
		t.Fatalf("plaintext gradients accepted under masked policy: status %d body %s", status, data)
	}
	status, data = doReq(t, http.MethodPost, gradURL, aggsBody(1, 5))
	if status != http.StatusOK {
		t.Fatalf("aggregates rejected under masked policy: status %d body %s", status, data)
	}

	// Unmask before any wire upload has nothing to reconstruct.
	status, data = doReq(t, http.MethodPost,
		srv.URL+"/v2/rounds/"+info.RoundID+"/unmask", `{"reveals":[]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unmask without uploads: status %d body %s", status, data)
	}
}
