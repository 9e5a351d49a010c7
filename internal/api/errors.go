package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The v2 API reports every failure as a JSON envelope:
//
//	{"error": {"code": "round_not_found", "message": "..."}}
//
// with a machine-readable code the SDK switches on and a human-readable
// message.

// Error codes returned by the v2 API.
const (
	CodeBadJSON          = "bad_json"           // 400: request body is not valid JSON
	CodeUnsupportedMedia = "unsupported_media"  // 415: gradients body is neither a wire payload nor a row frame
	CodeInvalidArgument  = "invalid_argument"   // 400: well-formed but semantically wrong
	CodeMethodNotAllowed = "method_not_allowed" // 405
	CodeNotFound         = "not_found"          // 404: no such route
	CodeRoundInProgress  = "round_in_progress"  // 409: a round is already open
	CodeRoundNotFound    = "round_not_found"    // 404: unknown round id
	CodeRoundFinished    = "round_finished"     // 409: round already finished (or expired)
	CodeRowNotFound      = "row_not_found"      // 404: row id out of range
	CodeNoRound          = "no_round"           // 409: v2 op needs an open round
	CodeStageConflict    = "stage_conflict"     // 409: stage addressed a superseded round
	CodeStageMismatch    = "stage_mismatch"     // 409: staged requests differ from the pending stage
	CodeInternal         = "internal"           // 500
	CodeOverloaded       = "overloaded"         // 503: shed by overload protection (Retry-After set)
	CodeUnavailable      = "unavailable"        // 503: every shard is quarantined
	CodeUnsupported      = "unsupported"        // 501: backend lacks the capability (admin routes)
	CodeStaleEpoch       = "stale_epoch"        // 409: request epoch below the highest fenced epoch
	CodeNotLeader        = "not_leader"         // 409: this coordinator is a standby; follow leader_hint
)

// ErrStaleEpoch is the sentinel a cluster coordinator wraps when its
// members reject it as deposed (a newer coordinator epoch has fenced
// them). The v2 handlers map it to 409 with code "stale_epoch", which
// the SDK treats as a failover trigger.
var ErrStaleEpoch = errors.New("api: stale coordinator epoch")

// ErrBodyTooLarge is returned by ReadBody for a body longer than its
// limit — never a silently truncated prefix. The SDK does not retry it.
var ErrBodyTooLarge = errors.New("api: body exceeds the size limit")

// Body limits. Checkpoint blobs are persist-framed and can reach many
// megabytes (a 2^20-row controller snapshots to 73 MB), so the admin
// transfers share one generous bound on both ends of the connection;
// everything else is a JSON body or a row frame.
const (
	// MaxAdminBlob bounds a checkpoint blob in either direction (a
	// denial-of-service guard, not a format limit).
	MaxAdminBlob = 1 << 30
	// MaxReplyBody bounds any other reply the SDK reads; /entries refuses
	// a row list whose reply frame would pass it.
	MaxReplyBody = 64 << 20
	// MaxRequestBody bounds every JSON request body and row frame the
	// server reads.
	MaxRequestBody = 64 << 20
)

// ReadBody reads one HTTP body — a request's on the server, a reply's in
// the SDK — into exactly the buffer it declared: with a Content-Length
// (declared ≥ 0) that is one allocation of that size and one ReadFull,
// and a body that ends early is io.ErrUnexpectedEOF; only a chunked body
// (declared < 0) is read by growing. A body past limit, declared or
// discovered, is ErrBodyTooLarge.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrBodyTooLarge, declared, limit)
	}
	if declared >= 0 {
		body := make([]byte, declared)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("%w: chunked body past %d bytes", ErrBodyTooLarge, limit)
	}
	return body, nil
}

// readRequestBody is ReadBody over a request, answering 400 itself on
// failure (ok false).
func readRequestBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := ReadBody(r.Body, r.ContentLength, limit)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "read body: %s", err.Error())
		return nil, false
	}
	return body, true
}

// DecodeJSONBody reads a request's JSON body, whole and bounded by
// MaxRequestBody, into v, answering 400 itself (ok false) for a body
// past the limit, malformed JSON or bytes after the top-level value.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	body, ok := readRequestBody(w, r, MaxRequestBody)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadJSON, "bad json: %s", err.Error())
		return false
	}
	return true
}

// writeBody sends a finished reply body at its declared length.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the peer hung up; nothing left to tell it
}

// WriteJSON marshals v before the status line goes out, so a value JSON
// cannot carry (a non-finite float) is a 500 envelope, not an empty 200.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorEnvelope{Error: ErrorBody{Code: CodeInternal, Message: "encode reply: " + err.Error()}})
	}
	writeBody(w, status, "application/json", append(body, '\n'))
}

// ErrorBody is the inner object of the v2 error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// LeaderHint, set on stale_epoch / not_leader errors when the
	// responder knows a better coordinator endpoint, points the SDK's
	// failover at it directly instead of round-robining.
	LeaderHint string `json:"leader_hint,omitempty"`
}

// ErrorEnvelope is the v2 error wire shape.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError emits the v2 JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// methodNotAllowed is the shared fallback for v2 routes hit with the
// wrong verb; allow lists the verbs the route accepts.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"%s not allowed (allow: %s)", r.Method, allow)
	}
}
