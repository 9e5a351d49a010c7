package api

import (
	"encoding/base64"
	"net/http"
	"sync"

	"repro/internal/fedora"
	"repro/internal/wire"
)

// The wire upload plane: clients POST opaque internal/wire payloads to
// the gradients endpoint with Content-Type application/x-fedora-wire
// instead of a gradient row frame. The server hosts a wire.Aggregator
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

// BatchIDHeader carries an upload's retry-dedup key, wire payload and
// row frame alike.
const BatchIDHeader = "X-Fedora-Batch-ID"

// maxWirePayload bounds one upload's size (a full-table masked payload
// for 1<<24 rows × dim 64 is ~4 GiB and is rejected by the codec long
// before this; real payloads are KBs to MBs).
const maxWirePayload = 256 << 20

// wireBodies recycles wire upload bodies: the gradients handler reads a
// payload into a pooled buffer and puts it back as it returns. That is
// sound because nothing keeps the bytes past the handler: the policy
// check reads only the header, and wire.(*Aggregator).Add folds the
// words into its sums and retains nothing of the payload.
var wireBodies = sync.Pool{New: func() any { return new([]byte) }}

// deadHook, set only by tests, is handed each pooled wire body as the
// handler gives it back, so a test can overwrite it and prove nothing
// read it later.
var deadHook func(body []byte)

// putWireBody gives a wire upload body back to the pool.
func putWireBody(buf *[]byte) {
	if deadHook != nil {
		deadHook(*buf)
	}
	wireBodies.Put(buf)
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
// a masked one — plain gradient frames are rejected too, so
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

// applyWireUpload hands one wire payload to the round's aggregator.
func (s *Server) applyWireUpload(sr *serverRound, payload []byte) (GradientBatchResponse, *apiError) {
	// Uploads are only accepted while the round is live; the aggregator
	// itself never touches the round until unmask.
	if _, aerr := s.liveRound(sr); aerr != nil {
		return GradientBatchResponse{}, aerr
	}
	codec, err := wire.PayloadCodec(payload)
	if err != nil {
		return GradientBatchResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument, "%s", err.Error())
	}
	if s.uploadPolicy != wire.CodecLegacy && codec != s.uploadPolicy {
		// Enforced BEFORE the aggregator sees the payload: a rejected
		// upload must not contribute to a later unmask.
		return GradientBatchResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
			"upload codec %q rejected by server policy %q", codec, s.uploadPolicy)
	}
	if err := s.wireAggregator(sr).Add(payload); err != nil {
		return GradientBatchResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument, "%s", err.Error())
	}
	s.wireBytes.Add(uint64(len(payload)))
	if ctr, ok := s.wireUploads[codec]; ok {
		ctr.Add(1)
	}
	// One payload, delivered: the acknowledgment a row frame gets.
	return GradientBatchResponse{RoundID: sr.id, Delivered: 1, Results: []bool{true}}, nil
}

// handleUnmaskV2 runs the unmasking round and applies the reconstructed
// sums. Errors (missing reveals, finished round) do not poison the
// round — the orchestrator can retry with the right reveals.
func (s *Server) handleUnmaskV2(w http.ResponseWriter, r *http.Request) {
	sr, aerr := s.lookupRound(r.PathValue("id"))
	if aerr != nil {
		aerr.write(w)
		return
	}
	var req UnmaskRequest
	if !DecodeJSONBody(w, r, &req) {
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
		WriteJSON(w, http.StatusOK, resp)
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
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "%s", err.Error())
		return
	}
	round, aerr := s.liveRound(sr)
	if aerr != nil {
		aerr.write(w)
		return
	}
	aggs := make([]fedora.RowAggregate, len(res.Rows))
	for i, row := range res.Rows {
		aggs[i] = fedora.RowAggregate{Row: row.Row, Sum: row.Sum, Count: row.Count}
	}
	delivered, err := round.SubmitAggregates(aggs)
	if err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
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
	WriteJSON(w, http.StatusOK, resp)
}
