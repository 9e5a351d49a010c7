package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// bulkConfig is fastConfig with an attempt timeout that moving 64 MiB
// over loopback fits under the race detector on a busy box.
func bulkConfig(url string) Config {
	cfg := fastConfig(url)
	cfg.Timeout = 2 * time.Minute
	return cfg
}

// TestOversizeReplyIsAnErrorNotAPrefix: a reply past the SDK's limit
// used to come back as its first 64 MiB, as if whole. It is now
// api.ErrBodyTooLarge, and — no retry can shrink it — not retried,
// whether the server declared the length or streamed it.
func TestOversizeReplyIsAnErrorNotAPrefix(t *testing.T) {
	for _, declared := range []bool{true, false} {
		t.Run(fmt.Sprintf("declared=%v", declared), func(t *testing.T) {
			if !declared && testing.Short() {
				t.Skip("streams 64 MiB over loopback")
			}
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				if declared {
					w.Header().Set("Content-Length", strconv.Itoa(api.MaxReplyBody+1))
				}
				chunk := make([]byte, 1<<20)
				for sent := 0; sent <= api.MaxReplyBody; sent += len(chunk) {
					if _, err := w.Write(chunk); err != nil {
						return // the client hung up, as it should
					}
					if !declared {
						w.(http.Flusher).Flush()
					}
				}
			}))
			defer srv.Close()
			c, err := New(bulkConfig(srv.URL))
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Status(context.Background())
			if !errors.Is(err, api.ErrBodyTooLarge) {
				t.Fatalf("err = %v, want api.ErrBodyTooLarge", err)
			}
			if st := c.Stats(); calls.Load() != 1 || st.Requests != 1 || st.Retries != 0 || st.Failures != 1 {
				t.Fatalf("%d calls, stats %+v; want one attempt, no retry, one failure", calls.Load(), st)
			}
		})
	}
}

// TestShortReplyIsRetried: a reply that ends before its Content-Length
// is a transport failure — retried, never handed back short.
func TestShortReplyIsRetried(t *testing.T) {
	full := []byte(statusJSON())
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		if calls.Add(1) == 1 {
			_, _ = w.Write(full[:len(full)-1]) // the server then drops the connection
			return
		}
		_, _ = w.Write(full)
	}))
	defer srv.Close()
	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(context.Background())
	if err != nil || st.Backend != "fedora" {
		t.Fatalf("status = %+v, %v", st, err)
	}
	if stats := c.Stats(); stats.Requests != 2 || stats.Retries != 1 || stats.Failures != 0 {
		t.Fatalf("stats = %+v, want the short reply retried once", stats)
	}
}

// TestSnapshotShardOver64MiB: checkpoint blobs share the server's 1 GiB
// bound, not the JSON replies' 64 MiB — a 2^20-row controller already
// snapshots to 73 MB, which the old reader cut to 64 MiB without a word,
// leaving the coordinator to save a checkpoint that validates and cannot
// restore.
func TestSnapshotShardOver64MiB(t *testing.T) {
	if testing.Short() {
		t.Skip("moves a 65 MiB blob over loopback, both ways")
	}
	blob := bytes.Repeat([]byte("fedora-checkpoint"), (65<<20)/17+1)
	want := sha256.Sum256(blob)
	var restored [sha256.Size]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v2/admin/shards/3/snapshot":
			w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
			_, _ = w.Write(blob)
		case "/v2/admin/shards/3/restore":
			body, err := api.ReadBody(r.Body, r.ContentLength, api.MaxAdminBlob)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			restored = sha256.Sum256(body)
			fmt.Fprint(w, `{"restored":true}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c, err := New(bulkConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SnapshotShard(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blob) || sha256.Sum256(got) != want {
		t.Fatalf("SnapshotShard returned %d of %d bytes", len(got), len(blob))
	}
	if err := c.RestoreShard(context.Background(), 3, got); err != nil {
		t.Fatal(err)
	}
	if restored != want {
		t.Fatal("RestoreShard delivered different bytes")
	}
	if st := c.Stats(); st.BytesReceived < uint64(len(blob)) || st.BytesSent != uint64(len(blob)) {
		t.Fatalf("byte counters %+v do not account for the %d-byte blob", st, len(blob))
	}
}
