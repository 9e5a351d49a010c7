package api

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadBody: a declared body is read at exactly its length, a
// chunked one by growing, and neither is ever returned truncated — past
// the limit is ErrBodyTooLarge, short of the declaration is
// io.ErrUnexpectedEOF.
func TestReadBody(t *testing.T) {
	const limit = 100
	body := func(n int) io.Reader { return strings.NewReader(strings.Repeat("x", n)) }
	for _, tc := range []struct {
		name     string
		sent     int
		declared int64
		wantLen  int
		wantErr  error
	}{
		{"declared", 40, 40, 40, nil},
		{"declared empty", 0, 0, 0, nil},
		{"declared at the limit", limit, limit, limit, nil},
		{"declared past the limit", limit + 1, limit + 1, 0, ErrBodyTooLarge},
		{"declared, one byte short", 39, 40, 0, io.ErrUnexpectedEOF},
		{"chunked", 40, -1, 40, nil},
		{"chunked at the limit", limit, -1, limit, nil},
		{"chunked past the limit", limit + 1, -1, 0, ErrBodyTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadBody(body(tc.sent), tc.declared, limit)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != nil && got != nil {
				t.Fatalf("returned %d bytes alongside %v", len(got), err)
			}
			if len(got) != tc.wantLen {
				t.Fatalf("read %d bytes, want %d", len(got), tc.wantLen)
			}
			if tc.declared >= 0 && err == nil && cap(got) != int(tc.declared) {
				t.Fatalf("declared %d bytes read into a %d-byte buffer", tc.declared, cap(got))
			}
		})
	}
}

// TestReadBodyAllocatesDeclaredSize: the point of the declared path —
// one buffer of the body's size, where a growing read takes several
// times that.
func TestReadBodyAllocatesDeclaredSize(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 1<<20)
	r := bytes.NewReader(src)
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(src)
		if _, err := ReadBody(r, int64(len(src)), 1<<30); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("declared read made %v allocations, want 1", allocs)
	}
}

// TestOversizeRequestBodiesRejected: the request bodies the server
// reads (admin restores, binary uploads) answer 400 past their limit,
// declared or chunked, instead of acting on a prefix.
func TestOversizeRequestBodiesRejected(t *testing.T) {
	for _, declared := range []bool{true, false} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/x", strings.NewReader(strings.Repeat("x", 65)))
		if !declared {
			r.ContentLength = -1
		}
		if body, ok := readRequestBody(w, r, 64); ok || body != nil {
			t.Fatalf("declared=%v: a 65-byte body passed a 64-byte limit", declared)
		}
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), CodeInvalidArgument) {
			t.Fatalf("declared=%v: reply %d %s, want 400 invalid_argument", declared, w.Code, w.Body)
		}
	}
}
