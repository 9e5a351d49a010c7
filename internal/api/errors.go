package api

import (
	"errors"
	"fmt"
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
