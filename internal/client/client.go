// Package client is the Go SDK for the FEDORA serving API (v2). It
// wraps the batched round protocol with:
//
//   - per-attempt timeouts and capped exponential backoff with jitter,
//   - retries restricted to failures that are safe to repeat — transport
//     errors, 5xx, and 429 — against endpoints the server makes
//     idempotent (begin via round_key, gradient batches via a batch id,
//     finish by construction),
//   - context cancellation across attempts and backoff sleeps,
//   - transfer chunking (BatchSize rows per HTTP request), and
//   - Retry-After honoring: a 429/503 with the header waits the server's
//     hint (capped at BackoffMax) instead of the exponential schedule,
//     and bumps the Shed counter so callers see overload pushback, and
//   - atomic counters (requests / retries / failures / shed) so callers
//     can assert retry behavior.
//
// The higher-level RemoteTrainer (remote.go) plugs this client into the
// fl package's Orchestrator seam, running the unchanged local-SGD loop
// against a remote server.
package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/fedora"
	"repro/internal/wire"
)

// Config tunes a Client. The zero value of every field has a sensible
// default; only BaseURL is required.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Endpoints lists alternative server roots for failover (BaseURL,
	// when set, is tried first). On a transport failure or a typed
	// stale_epoch / not_leader reply the client switches endpoints —
	// following the reply's leader_hint when one is present, otherwise
	// rotating — and the failed attempt is retried against the new
	// endpoint within the same MaxRetries budget. With a single endpoint
	// the behavior is unchanged.
	Endpoints []string
	// Timeout bounds each individual HTTP attempt (default 30s).
	Timeout time.Duration
	// MaxRetries is the number of re-attempts after the first try
	// (default 4, so at most 5 requests per call). Negative disables
	// retries.
	MaxRetries int
	// BackoffBase/BackoffMax shape the capped exponential backoff
	// between attempts (defaults 50ms / 2s). Each sleep is the base
	// doubled per attempt, capped, then jittered ×[0.5, 1.5).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BatchSize chunks entry downloads and gradient uploads (default
	// 64 rows per request).
	BatchSize int
	// RetrySeed seeds the jitter RNG and the idempotency-key prefix
	// (0 = derived from the wall clock; set it in tests for
	// reproducible backoff schedules).
	RetrySeed int64
	// HTTPClient overrides the transport (default &http.Client{}; the
	// per-attempt context carries the timeout, so the client itself has
	// none).
	HTTPClient *http.Client
}

// Stats are cumulative client-side counters.
type Stats struct {
	// Requests counts every HTTP attempt, including retries.
	Requests uint64
	// Retries counts re-attempts (Requests - logical calls ≤ Retries
	// budget).
	Retries uint64
	// Failures counts logical calls that exhausted their retry budget
	// or hit a non-retryable error.
	Failures uint64
	// Shed counts attempts the server rejected with 429 or 503 —
	// overload shedding or total unavailability. Shed attempts are
	// retried, waiting out the server's Retry-After when it sent one.
	Shed uint64
	// BytesSent / BytesReceived count request and response body bytes
	// across every attempt (JSON, row frames and raw admin blobs alike) — the wire
	// cost a bytes/round experiment measures.
	BytesSent     uint64
	BytesReceived uint64
	// Failovers counts endpoint switches: a transport failure or a
	// stale_epoch / not_leader reply made the client move to another
	// configured endpoint (or to a server-supplied leader hint).
	Failovers uint64
}

// APIError is a decoded v2 error envelope (or a plain non-2xx reply).
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's Retry-After hint (0 = none). The retry
	// loop sleeps this long (capped at Config.BackoffMax) instead of the
	// exponential schedule.
	RetryAfter time.Duration
	// LeaderHint is the error envelope's leader_hint field (set on
	// stale_epoch / not_leader replies when the responder knows a better
	// coordinator endpoint). Failover jumps straight to it.
	LeaderHint string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("api error %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("api error %d: %s", e.Status, e.Message)
}

// Retryable reports whether repeating the request may succeed: server
// faults and throttling are retryable, client errors (4xx) are not.
func (e *APIError) Retryable() bool {
	return e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

// transportError marks connection-level failures (dial, reset, attempt
// timeout) — always retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// Client is a v2 API client. Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	rngMu sync.Mutex
	rng   *rand.Rand

	idPrefix string
	idSeq    atomic.Uint64

	// epoch, when nonzero, is stamped on every request as the
	// X-Fedora-Epoch fencing header (a coordinator talking to members).
	epoch atomic.Uint64

	// Endpoint failover state: the configured (plus hint-discovered)
	// server roots and the index currently in use.
	epMu      sync.Mutex
	endpoints []string
	epCur     int

	requests  atomic.Uint64
	retries   atomic.Uint64
	failures  atomic.Uint64
	shed      atomic.Uint64
	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64
	failovers atomic.Uint64
}

// New builds a Client.
func New(cfg Config) (*Client, error) {
	var endpoints []string
	if cfg.BaseURL != "" {
		endpoints = append(endpoints, strings.TrimRight(cfg.BaseURL, "/"))
	}
	for _, ep := range cfg.Endpoints {
		ep = strings.TrimRight(ep, "/")
		if ep == "" {
			continue
		}
		dup := false
		for _, have := range endpoints {
			if have == ep {
				dup = true
				break
			}
		}
		if !dup {
			endpoints = append(endpoints, ep)
		}
	}
	if len(endpoints) == 0 {
		return nil, errors.New("client: BaseURL (or Endpoints) required")
	}
	cfg.BaseURL = endpoints[0]
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	return &Client{
		cfg:       cfg,
		http:      hc,
		rng:       rng,
		idPrefix:  fmt.Sprintf("c%08x", rng.Uint32()),
		endpoints: endpoints,
	}, nil
}

// Stats returns a snapshot of the cumulative counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:      c.requests.Load(),
		Retries:       c.retries.Load(),
		Failures:      c.failures.Load(),
		Shed:          c.shed.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesRecv.Load(),
		Failovers:     c.failovers.Load(),
	}
}

// SetEpoch sets the coordinator epoch stamped on every request (0 =
// none, the default). A cluster coordinator calls this on its member
// clients so members can fence requests from deposed epochs.
func (c *Client) SetEpoch(e uint64) { c.epoch.Store(e) }

// Epoch reports the currently stamped coordinator epoch.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// baseURL returns the endpoint currently in use.
func (c *Client) baseURL() string {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	return c.endpoints[c.epCur]
}

// Endpoint reports the endpoint currently in use (for status displays
// and tests).
func (c *Client) Endpoint() string { return c.baseURL() }

// failover inspects an attempt error and, when it indicates the current
// endpoint is the wrong place to talk to — a transport failure, or a
// typed stale_epoch / not_leader reply — switches to another endpoint:
// the reply's leader_hint when present (learned endpoints join the
// rotation), the next configured endpoint otherwise. Reports whether it
// switched; a switch makes the error worth retrying even when its
// status alone would not be.
func (c *Client) failover(err error) bool {
	var hint string
	switch {
	case errors.As(err, new(*transportError)):
		// Endpoint unreachable; rotate if there is anywhere to go.
	default:
		var ae *APIError
		if !errors.As(err, &ae) {
			return false
		}
		if ae.Code != api.CodeStaleEpoch && ae.Code != api.CodeNotLeader {
			return false
		}
		hint = strings.TrimRight(ae.LeaderHint, "/")
	}
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if hint != "" {
		for i, ep := range c.endpoints {
			if ep == hint {
				if i == c.epCur {
					return false // already talking to the hinted leader
				}
				c.epCur = i
				c.failovers.Add(1)
				return true
			}
		}
		c.endpoints = append(c.endpoints, hint)
		c.epCur = len(c.endpoints) - 1
		c.failovers.Add(1)
		return true
	}
	if len(c.endpoints) < 2 {
		return false
	}
	c.epCur = (c.epCur + 1) % len(c.endpoints)
	c.failovers.Add(1)
	return true
}

// classifyRetry decides whether an attempt error is worth another try,
// performing the endpoint-failover side effect exactly once per failed
// attempt. A switch to another endpoint makes otherwise-terminal errors
// (stale_epoch, not_leader — 4xx by status) retryable there.
func (c *Client) classifyRetry(err error) bool {
	switched := c.failover(err)
	return retryable(err) || switched
}

// nextID mints a unique idempotency key ("<prefix>-<n>"). Retries of
// one logical call reuse the key; distinct calls never collide.
func (c *Client) nextID() string {
	return fmt.Sprintf("%s-%d", c.idPrefix, c.idSeq.Add(1))
}

// ---- request core ----------------------------------------------------

// do runs one logical call with a JSON body and reply over doRaw's
// retry loop (admin.go).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	req := rawRequest{method: method, path: path}
	if in != nil {
		var err error
		if req.body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		req.contentType = "application/json"
	}
	data, err := c.doRaw(ctx, req)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode %s %s: %w", method, path, err)
	}
	return nil
}

// rawRequest is the input of one HTTP round trip.
type rawRequest struct {
	method, path string
	body         []byte
	contentType  string
	// header is one optional extra header, name then value (the wire
	// upload's batch id).
	header [2]string
	// replyLimit bounds the reply body; 0 means api.MaxReplyBody.
	replyLimit int64
}

// rawAttempt is the transport core shared by the JSON calls, the binary
// wire upload, the raw admin blob transfers and the health probe: one
// HTTP round trip, the reply read into a buffer of its declared length,
// byte counters updated. A reply cut short of its Content-Length is a
// transport error; one past the limit is api.ErrBodyTooLarge, which no
// retry can fix. Otherwise the returned error covers only transport
// failures — callers classify non-2xx statuses themselves.
func (c *Client) rawAttempt(ctx context.Context, r rawRequest) ([]byte, int, http.Header, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, r.method, c.baseURL()+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("client: build request: %w", err)
	}
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	if r.header[0] != "" && r.header[1] != "" {
		req.Header.Set(r.header[0], r.header[1])
	}
	if e := c.epoch.Load(); e != 0 {
		req.Header.Set(api.EpochHeader, strconv.FormatUint(e, 10))
	}
	c.requests.Add(1)
	c.bytesSent.Add(uint64(len(r.body)))
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, nil, &transportError{err}
	}
	defer resp.Body.Close()
	limit := r.replyLimit
	if limit == 0 {
		limit = api.MaxReplyBody
	}
	data, err := api.ReadBody(resp.Body, resp.ContentLength, limit)
	if errors.Is(err, api.ErrBodyTooLarge) {
		return nil, 0, nil, fmt.Errorf("client: %s %s reply: %w", r.method, r.path, err)
	}
	if err != nil {
		return nil, 0, nil, &transportError{err}
	}
	c.bytesRecv.Add(uint64(len(data)))
	return data, resp.StatusCode, resp.Header, nil
}

// statusError builds the APIError for a non-2xx reply (envelope when
// present, raw text otherwise) and counts shed pushback.
func (c *Client) statusError(status int, hdr http.Header, data []byte) *APIError {
	apiErr := &APIError{Status: status}
	var env api.ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		apiErr.Code, apiErr.Message = env.Error.Code, env.Error.Message
		apiErr.LeaderHint = env.Error.LeaderHint
	} else {
		apiErr.Message = strings.TrimSpace(string(data))
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		c.shed.Add(1)
	}
	return apiErr
}

// backoff sleeps before re-attempt number attempt (≥1), honoring ctx.
// A server Retry-After hint (hint > 0) replaces the jittered exponential
// wait, still capped at BackoffMax so a hostile or confused server
// cannot stall the client arbitrarily long. When the caller's context
// carries a deadline that would expire during the sleep, backoff fails
// fast with context.DeadlineExceeded instead of burning the remaining
// budget asleep — a short-deadline call reports its failure while the
// caller can still act on it.
func (c *Client) backoff(ctx context.Context, attempt int, hint time.Duration) error {
	var d time.Duration
	if hint > 0 {
		d = hint
		if d > c.cfg.BackoffMax {
			d = c.cfg.BackoffMax
		}
	} else {
		d = c.cfg.BackoffBase << (attempt - 1)
		if d <= 0 || d > c.cfg.BackoffMax {
			d = c.cfg.BackoffMax
		}
		c.rngMu.Lock()
		jitter := 0.5 + c.rng.Float64()
		c.rngMu.Unlock()
		d = time.Duration(float64(d) * jitter)
	}
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain <= d {
			return fmt.Errorf("%s backoff exceeds the %s left before the context deadline: %w",
				d, remain, context.DeadlineExceeded)
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfterOf extracts the server's Retry-After hint from an attempt
// error (0 = none).
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// retryable classifies an attempt error.
func retryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retryable()
	}
	return false
}

// ---- API methods -----------------------------------------------------

// Status fetches server status.
func (c *Client) Status(ctx context.Context) (api.StatusResponse, error) {
	var out api.StatusResponse
	err := c.do(ctx, http.MethodGet, "/v2/status", nil, &out)
	return out, err
}

// Begin starts a round. An empty RoundKey is filled with a fresh
// idempotency key, so retried begins land on the round the first
// (possibly lost) attempt created instead of conflicting.
func (c *Client) Begin(ctx context.Context, req api.BeginV2Request) (api.RoundInfo, error) {
	if req.RoundKey == "" {
		req.RoundKey = c.nextID()
	}
	var out api.RoundInfo
	err := c.do(ctx, http.MethodPost, "/v2/rounds", req, &out)
	return out, err
}

// BeginRound starts a round from per-client row requests.
func (c *Client) BeginRound(ctx context.Context, requests [][]uint64) (api.RoundInfo, error) {
	return c.Begin(ctx, api.BeginV2Request{Requests: requests})
}

// RoundInfo fetches a round's lifecycle state.
func (c *Client) RoundInfo(ctx context.Context, roundID string) (api.RoundInfo, error) {
	var out api.RoundInfo
	err := c.do(ctx, http.MethodGet, "/v2/rounds/"+roundID, nil, &out)
	return out, err
}

// Entries downloads the given rows, chunked into BatchSize-row
// requests; replies come back in request order. The caller owns the
// result: each chunk's vectors share one backing array nothing else
// references.
func (c *Client) Entries(ctx context.Context, roundID string, rows []uint64) ([]fedora.EntryResult, error) {
	var out []fedora.EntryResult
	for start := 0; start < len(rows); start += c.cfg.BatchSize {
		end := min(start+c.cfg.BatchSize, len(rows))
		body, err := json.Marshal(api.EntriesRequest{Rows: rows[start:end]})
		if err != nil {
			return nil, fmt.Errorf("client: encode entries request: %w", err)
		}
		data, err := c.doRaw(ctx, rawRequest{
			method: http.MethodPost, path: "/v2/rounds/" + roundID + "/entries",
			body: body, contentType: "application/json",
		})
		if err != nil {
			return nil, err
		}
		f, err := api.DecodeRowFrame(data)
		if err != nil {
			return nil, fmt.Errorf("client: entries reply: %w", err)
		}
		if f.Kind != api.FrameEntries || len(f.Entries) != end-start {
			return nil, fmt.Errorf("client: entries batch returned %d of %d rows (frame kind %d)",
				len(f.Entries), end-start, f.Kind)
		}
		if start == 0 {
			out = f.Entries
		} else {
			out = append(out, f.Entries...)
		}
	}
	return out, nil
}

// SubmitGradients uploads the given row gradients, chunked into
// BatchSize-row frames. Every frame carries a fresh batch id, so a
// retried frame is applied at most once. Returns per-gradient delivery
// flags in input order.
func (c *Client) SubmitGradients(ctx context.Context, roundID string, grads []fedora.RowGradient) ([]bool, error) {
	return c.submitRows(ctx, roundID, len(grads), func(lo, hi int) api.RowFrame {
		return api.RowFrame{Kind: api.FrameGradients, Dim: len(grads[0].Grad), Gradients: grads[lo:hi]}
	})
}

// SubmitAggregates uploads already-summed row updates (the unmasked
// output of a wire round — the coordinator's member fan-out path),
// chunked like gradients with a fresh batch id per chunk.
func (c *Client) SubmitAggregates(ctx context.Context, roundID string, aggs []fedora.RowAggregate) ([]bool, error) {
	return c.submitRows(ctx, roundID, len(aggs), func(lo, hi int) api.RowFrame {
		return api.RowFrame{Kind: api.FrameAggregates, Dim: len(aggs[0].Sum), Aggregates: aggs[lo:hi]}
	})
}

// submitRows posts records [0, n) as one row frame per BatchSize chunk.
func (c *Client) submitRows(ctx context.Context, roundID string, n int, chunk func(lo, hi int) api.RowFrame) ([]bool, error) {
	var results []bool
	for start := 0; start < n; start += c.cfg.BatchSize {
		end := min(start+c.cfg.BatchSize, n)
		body, err := api.AppendRowFrame(nil, chunk(start, end))
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		data, err := c.doRaw(ctx, rawRequest{
			method: http.MethodPost, path: "/v2/rounds/" + roundID + "/gradients",
			body: body, contentType: api.RowFrameContentType,
			header: [2]string{api.BatchIDHeader, c.nextID()},
		})
		if err != nil {
			return nil, err
		}
		var resp api.GradientBatchResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, fmt.Errorf("client: decode gradients reply: %w", err)
		}
		if len(resp.Results) != end-start {
			return nil, fmt.Errorf("client: batch returned %d of %d results", len(resp.Results), end-start)
		}
		results = append(results, resp.Results...)
	}
	return results, nil
}

// SubmitWireUpload posts one opaque wire-plane payload (Content-Type
// application/x-fedora-wire). batchID keys server-side retry dedup;
// callers MUST pass a batch id stable across retries of the same
// payload (the fl wire plane derives it from round and client index).
func (c *Client) SubmitWireUpload(ctx context.Context, roundID, batchID string, payload []byte) error {
	_, err := c.doRaw(ctx, rawRequest{
		method: http.MethodPost, path: "/v2/rounds/" + roundID + "/gradients",
		body: payload, contentType: api.WireContentType,
		header: [2]string{api.BatchIDHeader, batchID},
	})
	return err
}

// Unmask runs the round's unmasking step, revealing the orphaned pair
// seeds of every (survivor, dropout) pair. Idempotent server-side, so
// retries are safe.
func (c *Client) Unmask(ctx context.Context, roundID string, reveals []wire.Reveal) (api.UnmaskResponse, error) {
	req := api.UnmaskRequest{Reveals: make([]api.RevealJSON, len(reveals))}
	for i, rv := range reveals {
		req.Reveals[i] = api.RevealJSON{
			Survivor: rv.Survivor,
			Dropout:  rv.Dropout,
			Seed:     base64.StdEncoding.EncodeToString(rv.Seed[:]),
		}
	}
	var out api.UnmaskResponse
	err := c.do(ctx, http.MethodPost, "/v2/rounds/"+roundID+"/unmask", req, &out)
	return out, err
}

// Stage posts the NEXT round's per-client requests against roundID (the
// latest round, open or finished) — the two-phase lookahead leg. An
// empty stageKey is filled with a fresh idempotency key, so a retried
// stage replays the recorded response instead of re-staging.
func (c *Client) Stage(ctx context.Context, roundID string, requests [][]uint64, stageKey string) (api.StageV2Response, error) {
	if stageKey == "" {
		stageKey = c.nextID()
	}
	var out api.StageV2Response
	err := c.do(ctx, http.MethodPost, "/v2/rounds/"+roundID+"/stage",
		api.StageV2Request{Requests: requests, StageKey: stageKey}, &out)
	return out, err
}

// FinishRound completes the round (idempotent server-side) and returns
// its info with stats.
func (c *Client) FinishRound(ctx context.Context, roundID string) (api.RoundInfo, error) {
	var out api.RoundInfo
	err := c.do(ctx, http.MethodPost, "/v2/rounds/"+roundID+"/finish", nil, &out)
	return out, err
}

// PeekRow reads one embedding row through the evaluation backdoor.
func (c *Client) PeekRow(ctx context.Context, row uint64) ([]float32, error) {
	var out api.RowResponse
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v2/rows/%d", row), nil, &out)
	return out.Entry, err
}
