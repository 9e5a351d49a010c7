package api

import (
	"errors"
	"fmt"
	"io"
	"net/http"
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
// everything else the SDK reads is a JSON reply.
const (
	// MaxAdminBlob bounds a checkpoint blob in either direction (a
	// denial-of-service guard, not a format limit).
	MaxAdminBlob = 1 << 30
	// MaxReplyBody bounds any other reply the SDK reads.
	MaxReplyBody = 64 << 20
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
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
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
