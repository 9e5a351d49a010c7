package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

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
//   - ClusterStatus and ClusterLeader against a coordinator's /cluster
//     routes.
//
// All of them ride the same retry/backoff/classification loop as the
// round calls and feed the same byte counters.

// doRaw runs one logical call on raw request and reply bodies over
// retry.
func (c *Client) doRaw(ctx context.Context, req rawRequest) ([]byte, error) {
	var data []byte
	err := c.retry(ctx, req.method, req.path, func() error {
		d, status, hdr, err := c.rawAttempt(ctx, req)
		if err == nil && status >= 300 {
			err = c.statusError(status, hdr, d)
		}
		data = d
		return err
	})
	return data, err
}

// retry runs attempt until it succeeds: classify, back off, retry. The
// caller's ctx spans all attempts; each attempt additionally gets the
// configured per-attempt timeout.
func (c *Client) retry(ctx context.Context, method, path string, attempt func() error) error {
	var lastErr error
	for n := 0; ; n++ {
		if n > 0 {
			c.retries.Add(1)
			if err := c.backoff(ctx, n, retryAfterOf(lastErr)); err != nil {
				c.failures.Add(1)
				return fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, err, lastErr)
			}
		}
		if lastErr = attempt(); lastErr == nil {
			return nil
		}
		if ctx.Err() != nil || !c.classifyRetry(lastErr) || n >= c.cfg.MaxRetries {
			c.failures.Add(1)
			return fmt.Errorf("client: %s %s failed after %d attempt(s): %w", method, path, n+1, lastErr)
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

// SnapshotShard opens one shard's checkpoint section by GLOBAL shard
// index. It returns once the server has answered with headers, with the
// reply body and the section's length, its Content-Length: the server
// encodes the whole section before it answers, so the section is taken
// by then. The caller reads the body and must Close it, which ends the
// call. Retries cover the call up to the headers; a body that fails
// midway is the caller's to handle.
func (c *Client) SnapshotShard(ctx context.Context, shard int) (body io.ReadCloser, size int64, err error) {
	req := rawRequest{method: http.MethodGet, path: fmt.Sprintf("/v2/admin/shards/%d/snapshot", shard)}
	err = c.retry(ctx, req.method, req.path, func() error {
		resp, cancel, err := c.send(ctx, req)
		if err != nil {
			return err
		}
		if resp.StatusCode < 300 && resp.ContentLength >= 0 && resp.ContentLength <= api.MaxAdminBlob {
			body, size = &replyBody{ReadCloser: resp.Body, cancel: cancel, recv: &c.bytesRecv}, resp.ContentLength
			return nil
		}
		defer cancel()
		defer resp.Body.Close()
		if resp.StatusCode < 300 {
			return fmt.Errorf("client: %s %s reply declares %d bytes, want 0 to %d",
				req.method, req.path, resp.ContentLength, api.MaxAdminBlob)
		}
		data, err := c.readReply(resp, req)
		if err != nil {
			return err
		}
		return c.statusError(resp.StatusCode, resp.Header, data)
	})
	return body, size, err
}

// replyBody is a reply body handed to the caller: its reads count as
// received bytes, and Close also ends the attempt's timeout.
type replyBody struct {
	io.ReadCloser
	cancel context.CancelFunc
	recv   *atomic.Uint64
}

func (b *replyBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.recv.Add(uint64(n))
	return n, err
}

func (b *replyBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
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
	req := rawRequest{method: http.MethodGet, path: "/healthz"}
	err := c.retry(ctx, req.method, req.path, func() error {
		data, status, hdr, err := c.rawAttempt(ctx, req)
		if err != nil {
			return err
		}
		if status == http.StatusOK || status == http.StatusServiceUnavailable {
			if json.Unmarshal(data, &out) == nil {
				return nil
			}
		}
		return c.statusError(status, hdr, data)
	})
	return out, err
}

// ClusterStatus fetches a coordinator's placement map and per-node
// health.
func (c *Client) ClusterStatus(ctx context.Context) (api.ClusterStatusResponse, error) {
	var out api.ClusterStatusResponse
	err := c.do(ctx, http.MethodGet, "/cluster/status", nil, &out)
	return out, err
}

// ClusterLeader asks a coordinator instance which role it plays and
// under which epoch. The operator CLI prints it; it is also the
// cheapest way for a trainer to learn where the current leader is.
func (c *Client) ClusterLeader(ctx context.Context) (api.ClusterLeaderResponse, error) {
	var out api.ClusterLeaderResponse
	err := c.do(ctx, http.MethodGet, "/cluster/leader", nil, &out)
	return out, err
}
