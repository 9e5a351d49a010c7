package api

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/fedora"
	"repro/internal/wire"
)

// The wire upload plane: clients POST opaque internal/wire payloads to
// the gradients endpoint with Content-Type application/x-fedora-wire
// instead of a JSON gradient batch. The server hosts a wire.Aggregator
// per round — under a masked codec it only ever sees masked words, and
// learns nothing about an individual client's update beyond the final
// sum. Once every surviving client has uploaded, the orchestrator runs
// the unmasking round:
//
//	POST /v2/rounds/{id}/unmask   {"reveals": [{survivor, dropout, seed}]}
//
// revealing the orphaned pair seeds of every (survivor, dropout) pair.
// The server subtracts the orphaned masks, decodes the per-row
// fixed-point sums and applies them through Round.SubmitAggregates —
// the same arithmetic the trainer-side plane uses, so remote and local
// deployments land on bit-identical models. Unmask is idempotent: a
// retried request replays the recorded response instead of
// double-applying.

// WireContentType selects the binary upload path on the gradients
// endpoint.
const WireContentType = "application/x-fedora-wire"

// WireBatchIDHeader carries the retry-dedup key for binary uploads
// (the JSON path carries it in the body as batch_id).
const WireBatchIDHeader = "X-Fedora-Batch-ID"

// maxWirePayload bounds one upload's size (a full-table masked payload
// for 1<<24 rows × dim 64 is ~4 GiB and is rejected by the codec long
// before this; real payloads are KBs to MBs).
const maxWirePayload = 256 << 20

// AggregateRequest is one already-summed row update: the unmasked
// output of a wire round, fanned out by a cluster coordinator to the
// member owning the row. Sum is Σ_c n_c·Δθ over the quantization grid
// and Count is Σ_c n_c; float32 round-trips JSON exactly, so the
// member applies bit-identical values.
type AggregateRequest struct {
	Row   uint64    `json:"row"`
	Sum   []float32 `json:"sum"`
	Count float32   `json:"count"`
}

// RevealJSON is one orphaned pair seed, base64-encoded for JSON.
type RevealJSON struct {
	Survivor int    `json:"survivor"`
	Dropout  int    `json:"dropout"`
	Seed     string `json:"seed"`
}

// UnmaskRequest runs the unmasking round. Reveals must cover exactly
// the (survivor, dropout) pairs of the round's roster; empty for a
// round without dropouts or an unmasked codec.
type UnmaskRequest struct {
	Reveals []RevealJSON `json:"reveals"`
}

// UnmaskResponse reports what the server applied.
type UnmaskResponse struct {
	RoundID     string `json:"round_id"`
	Codec       string `json:"codec"`
	Rows        int    `json:"rows"`
	Delivered   int    `json:"delivered"`
	Bytes       uint64 `json:"bytes"`
	Saturations int    `json:"saturations"`
	// Duplicate reports the unmask already ran; the recorded outcome is
	// echoed instead of double-applying.
	Duplicate bool `json:"duplicate,omitempty"`
}

// WithUploadCodec pins the server's upload-plane policy: binary wire
// uploads must use exactly this codec, and — when the policy codec is
// a masked one — plain JSON gradient submissions are rejected too, so
// a server deployed for secure aggregation cannot be handed individual
// plaintext updates by a misconfigured trainer. The zero policy
// (CodecLegacy) accepts everything.
func WithUploadCodec(c wire.Codec) Option {
	return func(s *Server) { s.uploadPolicy = c }
}

// wireAggregator returns the round's aggregator, creating it on first
// use (geometry comes from the controller, the round number from the
// server round so payloads bind to the round they were encoded for).
func (s *Server) wireAggregator(sr *serverRound) *wire.Aggregator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sr.wireAgg == nil {
		sr.wireAgg = wire.NewAggregator(s.ctrl.NumRows(), s.ctrl.Dim(), sr.seq)
	}
	return sr.wireAgg
}

// handleWireUpload is the binary branch of the gradients endpoint.
// Dedup mirrors the JSON path: the batch id (header) is reserved
// before applying, and a duplicate replays the recorded response.
func (s *Server) handleWireUpload(w http.ResponseWriter, r *http.Request, sr *serverRound) {
	payload, ok := readRequestBody(w, r, maxWirePayload)
	if !ok {
		return
	}

	var be *batchEntry
	if id := r.Header.Get(WireBatchIDHeader); id != "" {
		s.mu.Lock()
		if prev, ok := sr.batches[id]; ok {
			s.mu.Unlock()
			<-prev.done
			if prev.errStatus != 0 {
				writeError(w, prev.errStatus, prev.errCode, "%s", prev.errMsg)
				return
			}
			resp := prev.resp
			resp.Duplicate = true
			writeJSON(w, http.StatusOK, resp)
			return
		}
		be = &batchEntry{done: make(chan struct{})}
		sr.batches[id] = be
		s.mu.Unlock()
		defer close(be.done)
	}
	fail := func(status int, code, msg string) {
		if be != nil {
			be.errStatus, be.errCode, be.errMsg = status, code, msg
		}
		writeError(w, status, code, "%s", msg)
	}

	// Uploads are only accepted while the round is live; the aggregator
	// itself never touches the round until unmask.
	if _, aerr := s.liveRound(sr); aerr != nil {
		fail(aerr.status, aerr.code, aerr.msg)
		return
	}
	codec, err := wire.PayloadCodec(payload)
	if err != nil {
		fail(http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	if s.uploadPolicy != wire.CodecLegacy && codec != s.uploadPolicy {
		// Enforced BEFORE the aggregator sees the payload: a rejected
		// upload must not contribute to a later unmask.
		fail(http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("upload codec %q rejected by server policy %q", codec, s.uploadPolicy))
		return
	}
	agg := s.wireAggregator(sr)
	if err := agg.Add(payload); err != nil {
		fail(http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	s.wireBytes.Add(uint64(len(payload)))
	if ctr, ok := s.wireUploads[codec]; ok {
		ctr.Add(1)
	}

	// The wire shape reuses the JSON acknowledgment so the dedup entry
	// replays identically: one payload, delivered.
	resp := GradientBatchResponse{RoundID: sr.id, Delivered: 1, Results: []bool{true}}
	if be != nil {
		be.resp = resp
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleUnmaskV2 runs the unmasking round and applies the reconstructed
// sums. Errors (missing reveals, finished round) do not poison the
// round — the orchestrator can retry with the right reveals.
func (s *Server) handleUnmaskV2(w http.ResponseWriter, r *http.Request) {
	sr, aerr := s.lookupRound(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr.status, aerr.code, "%s", aerr.msg)
		return
	}
	var req UnmaskRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadJSON, "bad json: %s", err.Error())
		return
	}
	reveals := make([]wire.Reveal, len(req.Reveals))
	for i, rv := range req.Reveals {
		seed, err := base64.StdEncoding.DecodeString(rv.Seed)
		if err != nil || len(seed) != 32 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument,
				"reveal %d: seed must be 32 base64 bytes", i)
			return
		}
		reveals[i] = wire.Reveal{Survivor: rv.Survivor, Dropout: rv.Dropout}
		copy(reveals[i].Seed[:], seed)
	}

	// unmaskMu serializes the whole unmask-and-apply transition so a
	// concurrent retry waits and then replays the recorded outcome.
	sr.unmaskMu.Lock()
	defer sr.unmaskMu.Unlock()
	if sr.unmaskDone {
		resp := sr.unmaskResp
		resp.Duplicate = true
		writeJSON(w, http.StatusOK, resp)
		return
	}

	s.mu.Lock()
	agg := sr.wireAgg
	s.mu.Unlock()
	if agg == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			"round %s has no wire uploads", sr.id)
		return
	}
	res, err := agg.Unmask(reveals)
	if err != nil {
		if errors.Is(err, wire.ErrNoUploads) {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, "%s", err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "%s", err.Error())
		return
	}
	round, aerr := s.liveRound(sr)
	if aerr != nil {
		writeError(w, aerr.status, aerr.code, "%s", aerr.msg)
		return
	}
	aggs := make([]fedora.RowAggregate, len(res.Rows))
	for i, row := range res.Rows {
		aggs[i] = fedora.RowAggregate{Row: row.Row, Sum: row.Sum, Count: row.Count}
	}
	delivered, err := round.SubmitAggregates(aggs)
	if err != nil {
		if errors.Is(err, fedora.ErrRoundFinished) {
			writeError(w, http.StatusConflict, CodeRoundFinished, "%s", err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, "%s", err.Error())
		return
	}
	nd := 0
	for _, d := range delivered {
		if d {
			nd++
		}
	}

	resp := UnmaskResponse{
		RoundID:     sr.id,
		Codec:       string(res.Codec),
		Rows:        len(aggs),
		Delivered:   nd,
		Bytes:       res.Bytes,
		Saturations: res.Saturations,
	}
	s.mu.Lock()
	sr.wireBytes = res.Bytes
	sr.wireSats = res.Saturations
	s.mu.Unlock()
	s.wireSats.Add(uint64(res.Saturations))
	sr.unmaskResp = resp
	sr.unmaskDone = true
	writeJSON(w, http.StatusOK, resp)
}

// submitAggregatesJSON is the JSON-path handler for a gradient batch
// that carries Aggregates instead of Gradients (a coordinator fanning
// unmasked sums out to members). Shares the caller's dedup entry.
func (s *Server) submitAggregatesJSON(w http.ResponseWriter, sr *serverRound,
	req GradientBatchRequest, fail func(status int, code, msg string), record func(GradientBatchResponse)) {
	for i, a := range req.Aggregates {
		if a.Row >= s.ctrl.NumRows() {
			fail(http.StatusBadRequest, CodeInvalidArgument,
				fmt.Sprintf("aggregate %d: row %d out of range %d", i, a.Row, s.ctrl.NumRows()))
			return
		}
	}
	round, aerr := s.liveRound(sr)
	if aerr != nil {
		fail(aerr.status, aerr.code, aerr.msg)
		return
	}
	aggs := make([]fedora.RowAggregate, len(req.Aggregates))
	for i, a := range req.Aggregates {
		aggs[i] = fedora.RowAggregate{Row: a.Row, Sum: a.Sum, Count: a.Count}
	}
	results, err := round.SubmitAggregates(aggs)
	if err != nil {
		if errors.Is(err, fedora.ErrRoundFinished) {
			fail(http.StatusConflict, CodeRoundFinished, err.Error())
			return
		}
		fail(http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	resp := GradientBatchResponse{RoundID: sr.id, Results: results}
	for _, ok := range results {
		if ok {
			resp.Delivered++
		} else {
			resp.Dropped++
		}
	}
	record(resp)
	writeJSON(w, http.StatusOK, resp)
}
