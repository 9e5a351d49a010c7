package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/api"
)

// This file extends the SDK beyond round traffic with the calls a
// cluster coordinator (and the operator CLI fronting one) needs:
//
//   - raw checkpoint transfers against the /v2/admin routes, the
//     transport half of shard migration;
//   - Healthz, the probe behind node fencing — unlike every other call
//     a 503 here is a VALID reply (the member is alive but fully
//     quarantined), so the decoded report is returned without error;
//   - ClusterStatus / JoinCluster against a coordinator's /cluster
//     routes.
//
// All of them ride the same retry/backoff/classification loop as the
// round calls and feed the same byte counters.

// doRaw runs one logical call on raw request and reply bodies: attempt,
// classify, back off, retry. The caller's ctx spans all attempts; each
// attempt additionally gets the configured per-attempt timeout.
func (c *Client) doRaw(ctx context.Context, req rawRequest) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := c.backoff(ctx, attempt, retryAfterOf(lastErr)); err != nil {
				c.failures.Add(1)
				return nil, fmt.Errorf("client: %s %s: %w (last error: %v)", req.method, req.path, err, lastErr)
			}
		}
		data, status, hdr, err := c.rawAttempt(ctx, req)
		if err == nil && status < 300 {
			return data, nil
		}
		if err == nil {
			err = c.statusError(status, hdr, data)
		}
		lastErr = err
		if ctx.Err() != nil || !c.classifyRetry(lastErr) || attempt >= c.cfg.MaxRetries {
			c.failures.Add(1)
			return nil, fmt.Errorf("client: %s %s failed after %d attempt(s): %w",
				req.method, req.path, attempt+1, lastErr)
		}
	}
}

// doBlob is doRaw for the admin checkpoint transfers: octet-stream
// bodies, bounded in both directions by the limit the server applies.
func (c *Client) doBlob(ctx context.Context, method, path string, blob []byte) ([]byte, error) {
	return c.doRaw(ctx, rawRequest{
		method: method, path: path, body: blob,
		contentType: "application/octet-stream", replyLimit: api.MaxAdminBlob,
	})
}

// Snapshot downloads the server's whole-controller checkpoint blob.
func (c *Client) Snapshot(ctx context.Context) ([]byte, error) {
	return c.doBlob(ctx, http.MethodGet, "/v2/admin/snapshot", nil)
}

// Restore replaces the server's controller state with a previously
// exported snapshot. Any open round on the server is force-aborted
// first.
func (c *Client) Restore(ctx context.Context, blob []byte) error {
	_, err := c.doBlob(ctx, http.MethodPost, "/v2/admin/restore", blob)
	return err
}

// SnapshotShard downloads one shard's checkpoint section by GLOBAL
// shard index.
func (c *Client) SnapshotShard(ctx context.Context, shard int) ([]byte, error) {
	return c.doBlob(ctx, http.MethodGet, fmt.Sprintf("/v2/admin/shards/%d/snapshot", shard), nil)
}

// RestoreShard replays one shard's checkpoint section onto the server
// by GLOBAL shard index, clearing any quarantine on that shard. Any
// open round on the server is force-aborted first.
func (c *Client) RestoreShard(ctx context.Context, shard int, blob []byte) error {
	_, err := c.doBlob(ctx, http.MethodPost, fmt.Sprintf("/v2/admin/shards/%d/restore", shard), blob)
	return err
}

// Healthz probes the server's health endpoint. A 503 reply is decoded
// and returned without error — an unavailable member is still
// REACHABLE, and the caller (a coordinator deciding whether to fence)
// needs the report either way. Only transport failures, after the
// configured retries, return an error.
func (c *Client) Healthz(ctx context.Context) (api.HealthzResponse, error) {
	var out api.HealthzResponse
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := c.backoff(ctx, attempt, retryAfterOf(lastErr)); err != nil {
				c.failures.Add(1)
				return out, fmt.Errorf("client: GET /healthz: %w (last error: %v)", err, lastErr)
			}
		}
		data, status, hdr, err := c.rawAttempt(ctx, rawRequest{method: http.MethodGet, path: "/healthz"})
		if err == nil {
			if status == http.StatusOK || status == http.StatusServiceUnavailable {
				if jerr := json.Unmarshal(data, &out); jerr == nil {
					return out, nil
				}
			}
			err = c.statusError(status, hdr, data)
		}
		lastErr = err
		if ctx.Err() != nil || !c.classifyRetry(lastErr) || attempt >= c.cfg.MaxRetries {
			c.failures.Add(1)
			return out, fmt.Errorf("client: GET /healthz failed after %d attempt(s): %w",
				attempt+1, lastErr)
		}
	}
}

// ClusterStatus fetches a coordinator's placement map and per-node
// health.
func (c *Client) ClusterStatus(ctx context.Context) (api.ClusterStatusResponse, error) {
	var out api.ClusterStatusResponse
	err := c.do(ctx, http.MethodGet, "/cluster/status", nil, &out)
	return out, err
}

// JoinCluster registers a member with a coordinator, triggering shard
// migration onto it when it replaces a fenced placement.
func (c *Client) JoinCluster(ctx context.Context, req api.ClusterJoinRequest) (api.ClusterJoinResponse, error) {
	var out api.ClusterJoinResponse
	err := c.do(ctx, http.MethodPost, "/cluster/join", req, &out)
	return out, err
}

// ClusterLeader asks a coordinator instance which role it plays and
// under which epoch. Standbys use it as the heartbeat against their
// peer; the operator CLI prints it; it is also the cheapest way for a
// trainer to learn where the current leader is.
func (c *Client) ClusterLeader(ctx context.Context) (api.ClusterLeaderResponse, error) {
	var out api.ClusterLeaderResponse
	err := c.do(ctx, http.MethodGet, "/cluster/leader", nil, &out)
	return out, err
}
