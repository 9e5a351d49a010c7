package api

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fedora"
	"repro/internal/wire"
)

// The v2 protocol: explicitly addressed rounds and batched transfers.
//
//	POST /v2/rounds                     begin (idempotent via round_key)
//	GET  /v2/rounds/{id}                round info
//	POST /v2/rounds/{id}/entries        batched download (reply: row frame)
//	POST /v2/rounds/{id}/gradients      batched upload: a row frame or a wire
//	                                    payload (idempotent via X-Fedora-Batch-ID)
//	POST /v2/rounds/{id}/stage          stage the NEXT round's requests
//	                                    (idempotent via stage_key)
//	POST /v2/rounds/{id}/finish         finish (idempotent)
//	GET  /v2/rows/{row}                 evaluation backdoor (PeekRow)
//	GET  /v2/status                     status + current round id
//
// Idempotency is what makes SDK retries safe: a duplicate begin with
// the same round_key returns the existing round, a duplicate gradient
// batch with the same batch id replays the recorded response instead of
// double-applying, and a repeated finish returns the recorded stats.
// Rounds may carry a deadline; when it passes the server finishes the
// round with whatever gradients arrived (partial aggregation), exactly
// as a production orchestrator would cut off stragglers.

// BeginV2Request starts (or idempotently re-fetches) a round.
type BeginV2Request struct {
	// Requests holds per-client row lists (fedora.DummyRequest pads).
	Requests [][]uint64 `json:"requests"`
	// RoundKey, when set, makes the begin idempotent: a later begin with
	// the same key returns the round it created instead of conflicting.
	RoundKey string `json:"round_key,omitempty"`
	// DeadlineMS, when positive, bounds the round's lifetime; past it
	// the server finishes the round with partial gradients.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// StageV2Request posts the next round's per-client request lists
// against the latest round — the first leg of the two-phase round
// lifecycle. The staged round's plan and ORAM reads start as soon as the
// current round finishes; the next begin MUST present the same lists.
type StageV2Request struct {
	Requests [][]uint64 `json:"requests"`
	// StageKey, when set, deduplicates retries like a gradient batch_id:
	// the server applies a given stage key at most once per round and
	// replays the recorded response for duplicates.
	StageKey string `json:"stage_key,omitempty"`
}

// StageV2Response acknowledges a stage.
type StageV2Response struct {
	// RoundID echoes the round the stage was addressed to (the latest
	// round; the staged requests are for its successor).
	RoundID string `json:"round_id"`
	Staged  bool   `json:"staged"`
	// Duplicate reports the stage key was already applied.
	Duplicate bool `json:"duplicate,omitempty"`
}

// RoundInfo describes one round's lifecycle state.
type RoundInfo struct {
	RoundID  string `json:"round_id"`
	Round    uint64 `json:"round"` // controller round number
	Finished bool   `json:"finished"`
	// Expired reports the deadline fired before an explicit finish.
	Expired    bool            `json:"expired,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	Stats      *RoundStatsJSON `json:"stats,omitempty"` // set once finished
}

// EntriesRequest downloads a batch of rows in one request; the reply is
// a FrameEntries row frame, one record per requested row, in request
// order.
type EntriesRequest struct {
	Rows []uint64 `json:"rows"`
}

// GradientBatchResponse acknowledges a gradient batch.
type GradientBatchResponse struct {
	RoundID   string `json:"round_id"`
	Delivered int    `json:"delivered"`
	Dropped   int    `json:"dropped"`
	// Duplicate reports the batch id was already applied; Results echo
	// the original application.
	Duplicate bool   `json:"duplicate,omitempty"`
	Results   []bool `json:"results"`
}

// RowResponse is the evaluation-backdoor reply.
type RowResponse struct {
	Row   uint64    `json:"row"`
	Entry []float32 `json:"entry"`
}

// reservation records one keyed request's reply — a gradient batch's
// or a stage's — for replay to retries. done is closed once resp and
// err are set; a concurrent duplicate waits on it instead of
// re-applying.
type reservation[T any] struct {
	done chan struct{}
	resp T
	err  *apiError // nil = success
}

// serverRound is the server-side state of one round.
type serverRound struct {
	id         string
	seq        uint64 // controller round number
	key        string
	deadlineMS int64
	timer      *time.Timer
	finishMu   sync.Mutex

	// Mutable fields below are guarded by the server mutex. finishMu
	// additionally serializes the finish transition itself so exactly
	// one caller (explicit finish or deadline timer) runs the round's
	// Finish.
	round     Round // nil once finished
	finished  bool
	expired   bool
	stats     fedora.RoundStats
	finishErr error // mapped to its envelope at reply time
	batches   map[string]*reservation[GradientBatchResponse]
	stages    map[string]*reservation[StageV2Response]

	// Wire upload plane (wire.go). wireAgg is created lazily on the
	// first binary upload; wireBytes/wireSats are recorded at unmask and
	// folded into the round stats at finish. unmaskMu serializes the
	// unmask-and-apply transition; a completed unmask replays its
	// recorded response to retries.
	wireAgg    *wire.Aggregator
	wireBytes  uint64
	wireSats   int
	unmaskMu   sync.Mutex
	unmaskDone bool
	unmaskResp UnmaskResponse
}

// ---- round lifecycle core --------------------------------------------

// apiError is an internal carrier for (status, code, message).
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// errorReply maps a backend error to its envelope, the one table every
// handler uses: each round-lifecycle sentinel has a fixed reply, and any
// other error gets the call site's fallback status and code.
func errorReply(err error, status int, code string) *apiError {
	switch {
	case errors.Is(err, fedora.ErrRoundFinished):
		status, code = http.StatusConflict, CodeRoundFinished
	case errors.Is(err, fedora.ErrRoundInProgress), errors.Is(err, fedora.ErrRoundOpen):
		status, code = http.StatusConflict, CodeRoundInProgress
	case errors.Is(err, ErrStaleEpoch):
		// A deposed coordinator: the SDK fails over on stale_epoch.
		status, code = http.StatusConflict, CodeStaleEpoch
	case errors.Is(err, fedora.ErrStageMismatch):
		status, code = http.StatusConflict, CodeStageMismatch
	case errors.Is(err, fedora.ErrShardUnavailable):
		// Nothing can serve until recovery runs: 503 so clients back off.
		status, code = http.StatusServiceUnavailable, CodeUnavailable
	}
	return &apiError{status: status, code: code, msg: err.Error()}
}

// write sends e as the JSON error envelope.
func (e *apiError) write(w http.ResponseWriter) { writeError(w, e.status, e.code, "%s", e.msg) }

// beginRound runs the begin flow: idempotency check, controller
// BeginRound (outside the server mutex), round registration, deadline
// arming. Returns the (possibly pre-existing) round and whether it was
// created by this call.
func (s *Server) beginRound(req BeginV2Request) (*serverRound, bool, *apiError) {
	if aerr := s.checkRequests(req.Requests); aerr != nil {
		return nil, false, aerr
	}

	s.mu.Lock()
	if req.RoundKey != "" {
		if id, ok := s.byKey[req.RoundKey]; ok {
			sr := s.rounds[id]
			s.mu.Unlock()
			return sr, false, nil
		}
	}
	if s.current != nil || s.beginning {
		s.mu.Unlock()
		return nil, false, errf(http.StatusConflict, CodeRoundInProgress, "round already in progress")
	}
	s.beginning = true
	s.mu.Unlock()

	// The controller's BeginRound does the heavy lifting (oblivious
	// union, FDP sampling, ORAM reads) — never under the server mutex.
	round, err := s.ctrl.BeginRound(req.Requests)

	s.mu.Lock()
	s.beginning = false
	if err != nil {
		s.mu.Unlock()
		return nil, false, errorReply(err, http.StatusBadRequest, CodeInvalidArgument)
	}
	s.roundSeq++
	sr := &serverRound{
		id:      fmt.Sprintf("r%d", s.roundSeq),
		seq:     s.ctrl.Round(),
		key:     req.RoundKey,
		round:   round,
		batches: make(map[string]*reservation[GradientBatchResponse]),
		stages:  make(map[string]*reservation[StageV2Response]),
	}
	deadline := s.defaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > 0 {
		sr.deadlineMS = deadline.Milliseconds()
		sr.timer = time.AfterFunc(deadline, func() { s.finishRound(sr, true) })
	}
	s.rounds[sr.id] = sr
	s.order = append(s.order, sr.id)
	if sr.key != "" {
		s.byKey[sr.key] = sr.id
	}
	s.current = sr
	s.pruneLocked()
	s.mu.Unlock()
	return sr, true, nil
}

// checkRequests refuses a begin's or a stage's request lists when there
// are none or a row is neither in the table nor DummyRequest padding.
func (s *Server) checkRequests(requests [][]uint64) *apiError {
	if len(requests) == 0 {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "no client requests")
	}
	n := s.ctrl.NumRows()
	for ci, rows := range requests {
		for _, row := range rows {
			if row != fedora.DummyRequest && row >= n {
				return errf(http.StatusBadRequest, CodeInvalidArgument,
					"client %d requests row %d out of range %d", ci, row, n)
			}
		}
	}
	return nil
}

// latestRound reports whether sr is the most recently begun round —
// the only round a stage may be addressed to.
func (s *Server) latestRound(sr *serverRound) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order) > 0 && s.order[len(s.order)-1] == sr.id
}

// lookupRound resolves a round id.
func (s *Server) lookupRound(id string) (*serverRound, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.rounds[id]
	if !ok {
		return nil, errf(http.StatusNotFound, CodeRoundNotFound, "unknown round %q", id)
	}
	return sr, nil
}

// liveRound returns the round handle, or a round_finished error.
func (s *Server) liveRound(sr *serverRound) (Round, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sr.finished || sr.round == nil {
		return nil, errf(http.StatusConflict, CodeRoundFinished, "round %s already finished", sr.id)
	}
	return sr.round, nil
}

// finishRound finishes sr exactly once (explicit finish and the
// deadline timer both funnel here); later callers get the recorded
// outcome. Returns the stats and the recorded finish error.
func (s *Server) finishRound(sr *serverRound, expired bool) (fedora.RoundStats, error) {
	sr.finishMu.Lock()
	defer sr.finishMu.Unlock()

	s.mu.Lock()
	if sr.finished {
		st, ferr := sr.stats, sr.finishErr
		s.mu.Unlock()
		return st, ferr
	}
	round := sr.round
	s.mu.Unlock()

	// Finish outside the server mutex: write-back touches every shard.
	// The post-finish resilience hook — checkpoint on a healthy cadence,
	// recover quarantined shards from the newest checkpoint otherwise —
	// runs before a round staged meanwhile starts; errors surface on
	// /healthz only.
	st, err := finishThen(round, s.maybeRecover)

	s.mu.Lock()
	sr.finished = true
	sr.expired = expired
	sr.round = nil
	// Fold the wire upload plane's accounting into the round's stats so
	// a remote trainer sees bytes/saturations in the finish reply.
	st.WireBytes += sr.wireBytes
	st.Saturations += sr.wireSats
	sr.stats = st
	if err != nil && !errors.Is(err, fedora.ErrRoundFinished) {
		sr.finishErr = err
	}
	if sr.timer != nil {
		sr.timer.Stop()
		sr.timer = nil
	}
	if s.current == sr {
		s.current = nil
	}
	ferr := sr.finishErr
	s.mu.Unlock()
	return st, ferr
}

// finishThen finishes r and runs upkeep: between the round's close and
// the start of a round staged meanwhile when r can order the two (a
// *fedora.Round's FinishThen), right after Finish otherwise.
func finishThen(r Round, upkeep func()) (fedora.RoundStats, error) {
	if f, ok := r.(interface {
		FinishThen(func()) (fedora.RoundStats, error)
	}); ok {
		return f.FinishThen(upkeep)
	}
	st, err := r.Finish()
	upkeep()
	return st, err
}

// roundInfo snapshots sr for the wire.
func (s *Server) roundInfo(sr *serverRound) RoundInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := RoundInfo{
		RoundID:    sr.id,
		Round:      sr.seq,
		Finished:   sr.finished,
		Expired:    sr.expired,
		DeadlineMS: sr.deadlineMS,
	}
	if sr.finished && sr.finishErr == nil {
		st := statsJSON(sr.stats)
		info.Stats = &st
	}
	return info
}

// pruneLocked bounds the round history, dropping the oldest FINISHED
// rounds past the cap (an unfinished round is never dropped — at most
// one exists, and it is s.current). Caller holds s.mu.
func (s *Server) pruneLocked() {
	const keep = 64
	if len(s.order) <= keep {
		return
	}
	excess := len(s.order) - keep
	kept := s.order[:0]
	for _, id := range s.order {
		sr := s.rounds[id]
		if excess > 0 && sr != nil && sr.finished {
			delete(s.rounds, id)
			if sr.key != "" && s.byKey[sr.key] == id {
				delete(s.byKey, sr.key)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// ---- v2 handlers -----------------------------------------------------

func (s *Server) handleStatusV2(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.statusSnapshot())
}

func (s *Server) handleBeginV2(w http.ResponseWriter, r *http.Request) {
	var req BeginV2Request
	if !DecodeJSONBody(w, r, &req) {
		return
	}
	sr, created, aerr := s.beginRound(req)
	if aerr != nil {
		aerr.write(w)
		return
	}
	status := http.StatusOK // idempotent re-fetch
	if created {
		status = http.StatusCreated
	}
	WriteJSON(w, status, s.roundInfo(sr))
}

func (s *Server) handleRoundInfoV2(w http.ResponseWriter, r *http.Request) {
	sr, aerr := s.lookupRound(r.PathValue("id"))
	if aerr != nil {
		aerr.write(w)
		return
	}
	WriteJSON(w, http.StatusOK, s.roundInfo(sr))
}

func (s *Server) handleEntriesV2(w http.ResponseWriter, r *http.Request) {
	sr, aerr := s.lookupRound(r.PathValue("id"))
	if aerr != nil {
		aerr.write(w)
		return
	}
	var req EntriesRequest
	if !DecodeJSONBody(w, r, &req) {
		return
	}
	dim := s.ctrl.Dim()
	if size := FrameSize(len(req.Rows), dim); size > MaxReplyBody {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			"%d rows make a %d-byte reply, limit %d; ask in smaller batches", len(req.Rows), size, MaxReplyBody)
		return
	}
	for _, row := range req.Rows {
		if row >= s.ctrl.NumRows() {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument,
				"row %d out of range %d", row, s.ctrl.NumRows())
			return
		}
	}
	round, aerr := s.liveRound(sr)
	if aerr != nil {
		aerr.write(w)
		return
	}
	// ServeEntries fans out across shards internally; an empty batch is
	// legal (a fully-padded client has nothing real to download).
	results, err := round.ServeEntries(req.Rows)
	if err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
		return
	}
	body, err := AppendRowFrame(nil, RowFrame{Kind: FrameEntries, Dim: dim, Entries: results})
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%s", err.Error())
		return
	}
	writeBody(w, http.StatusOK, RowFrameContentType, body)
}

// handleGradientsV2 takes one upload: an opaque wire-plane payload
// (masked or compressed, wire.go) or a row frame of gradients or of
// already-summed aggregates. The body is validated whole before the
// batch id is reserved, so a refused batch touched nothing — not the
// round, not a coordinator's WAL, not a member.
func (s *Server) handleGradientsV2(w http.ResponseWriter, r *http.Request) {
	sr, aerr := s.lookupRound(r.PathValue("id"))
	if aerr != nil {
		aerr.write(w)
		return
	}
	var apply func() (GradientBatchResponse, *apiError)
	switch ct := r.Header.Get("Content-Type"); {
	case strings.HasPrefix(ct, WireContentType):
		buf := wireBodies.Get().(*[]byte)
		defer putWireBody(buf)
		payload, ok := readRequestBodyInto(*buf, w, r, maxWirePayload)
		if !ok {
			return
		}
		*buf = payload
		apply = func() (GradientBatchResponse, *apiError) { return s.applyWireUpload(sr, payload) }
	case strings.HasPrefix(ct, RowFrameContentType):
		body, ok := readRequestBody(w, r, MaxRequestBody)
		if !ok {
			return
		}
		f, aerr := s.checkUploadFrame(body)
		if aerr != nil {
			aerr.write(w)
			return
		}
		apply = func() (GradientBatchResponse, *apiError) { return s.applyRows(sr, f) }
	default:
		writeError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
			"gradients take %s or %s, not %q", RowFrameContentType, WireContentType, ct)
		return
	}
	resp, dup, aerr := reserve(&s.mu, sr.batches, r.Header.Get(BatchIDHeader), apply)
	if aerr != nil {
		aerr.write(w)
		return
	}
	resp.Duplicate = dup
	WriteJSON(w, http.StatusOK, resp)
}

// reserve runs apply at most once per key of a round's reservations
// (gradient batch ids, stage keys): the key is reserved under mu before
// applying, so a concurrent retry waits for the first application and
// replays its recorded outcome instead of applying twice. dup reports
// such a replay. An empty key opts out.
func reserve[T any](mu *sync.Mutex, m map[string]*reservation[T], key string, apply func() (T, *apiError)) (resp T, dup bool, err *apiError) {
	if key == "" {
		resp, err = apply()
		return resp, false, err
	}
	mu.Lock()
	if prev, ok := m[key]; ok {
		mu.Unlock()
		<-prev.done
		return prev.resp, true, prev.err
	}
	res := &reservation[T]{done: make(chan struct{})}
	m[key] = res
	mu.Unlock()
	defer close(res.done)
	res.resp, res.err = apply()
	return res.resp, false, res.err
}

// checkUploadFrame decodes an uploaded row frame and validates every
// record against the controller's geometry and the upload policy.
func (s *Server) checkUploadFrame(body []byte) (RowFrame, *apiError) {
	f, err := DecodeRowFrame(body)
	switch {
	case err != nil:
		return f, errf(http.StatusBadRequest, CodeInvalidArgument, "%s", err.Error())
	case f.Kind == FrameEntries:
		return f, errf(http.StatusBadRequest, CodeInvalidArgument, "an upload carries gradients or aggregates, not entries")
	case f.Dim != s.ctrl.Dim():
		return f, errf(http.StatusBadRequest, CodeInvalidArgument, "frame dim %d != table dim %d", f.Dim, s.ctrl.Dim())
	case f.Kind == FrameGradients && s.uploadPolicy.Masked():
		return f, errf(http.StatusBadRequest, CodeInvalidArgument,
			"server policy %q requires wire uploads; plaintext gradients rejected", s.uploadPolicy)
	}
	rows := s.ctrl.NumRows()
	for i, g := range f.Gradients {
		if g.Samples <= 0 {
			return f, errf(http.StatusBadRequest, CodeInvalidArgument, "gradient %d: samples must be positive", i)
		}
		if g.Row >= rows {
			return f, errf(http.StatusBadRequest, CodeInvalidArgument, "gradient %d: row %d out of range %d", i, g.Row, rows)
		}
	}
	for i, a := range f.Aggregates {
		if a.Row >= rows {
			return f, errf(http.StatusBadRequest, CodeInvalidArgument, "aggregate %d: row %d out of range %d", i, a.Row, rows)
		}
	}
	return f, nil
}

// applyRows folds a validated gradient or aggregate frame into the round.
func (s *Server) applyRows(sr *serverRound, f RowFrame) (GradientBatchResponse, *apiError) {
	round, aerr := s.liveRound(sr)
	if aerr != nil {
		return GradientBatchResponse{}, aerr
	}
	var results []bool
	var err error
	if f.Kind == FrameAggregates {
		results, err = round.SubmitAggregates(f.Aggregates)
	} else {
		results, err = round.SubmitGradients(f.Gradients)
	}
	if err != nil {
		return GradientBatchResponse{}, errorReply(err, http.StatusBadRequest, CodeInvalidArgument)
	}
	resp := GradientBatchResponse{RoundID: sr.id, Results: results}
	for _, ok := range results {
		if ok {
			resp.Delivered++
		} else {
			resp.Dropped++
		}
	}
	return resp, nil
}

// handleStageV2 posts the NEXT round's request lists against the latest
// round (open or finished — the trainer stages after finishing round R,
// before beginning R+1). A stage addressed to a superseded round is a
// 409 stage_conflict; staged lists that differ from an already-pending
// stage are a 409 stage_mismatch. stage_key deduplicates retries.
func (s *Server) handleStageV2(w http.ResponseWriter, r *http.Request) {
	sr, aerr := s.lookupRound(r.PathValue("id"))
	if aerr != nil {
		aerr.write(w)
		return
	}
	var req StageV2Request
	if !DecodeJSONBody(w, r, &req) {
		return
	}
	if aerr := s.checkRequests(req.Requests); aerr != nil {
		aerr.write(w)
		return
	}
	if !s.latestRound(sr) {
		writeError(w, http.StatusConflict, CodeStageConflict,
			"round %s was superseded; stage against the latest round", sr.id)
		return
	}

	// StageRound validates and registers; the background plan+fetch
	// kicks off as soon as the current round (if any) finishes. Never
	// under the server mutex.
	resp, dup, aerr := reserve(&s.mu, sr.stages, req.StageKey, func() (StageV2Response, *apiError) {
		if err := s.ctrl.StageRound(req.Requests); err != nil {
			return StageV2Response{}, errorReply(err, http.StatusBadRequest, CodeInvalidArgument)
		}
		return StageV2Response{RoundID: sr.id, Staged: true}, nil
	})
	if aerr != nil {
		aerr.write(w)
		return
	}
	resp.Duplicate = dup
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFinishV2(w http.ResponseWriter, r *http.Request) {
	sr, aerr := s.lookupRound(r.PathValue("id"))
	if aerr != nil {
		aerr.write(w)
		return
	}
	if _, err := s.finishRound(sr, false); err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
		return
	}
	WriteJSON(w, http.StatusOK, s.roundInfo(sr))
}

func (s *Server) handleRowV2(w http.ResponseWriter, r *http.Request) {
	row, err := strconv.ParseUint(r.PathValue("row"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "bad row: %s", err.Error())
		return
	}
	if row >= s.ctrl.NumRows() {
		writeError(w, http.StatusNotFound, CodeRowNotFound,
			"row %d out of range %d", row, s.ctrl.NumRows())
		return
	}
	entry, err := s.ctrl.PeekRow(row)
	if err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
		return
	}
	WriteJSON(w, http.StatusOK, RowResponse{Row: row, Entry: entry})
}

func (s *Server) handleV2Fallback(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, CodeNotFound, "no such route: %s %s", r.Method, r.URL.Path)
}
