package api

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fdp"
	"repro/internal/fedora"
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
	// 50 runs: run first under -race (one shuffle in ~70) the runtime's
	// start-up allocations land in the window; the average floors them away.
	allocs := testing.AllocsPerRun(50, func() {
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

// blanks is an endless body of JSON whitespace.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestJSONRequestBodiesBounded: every route that takes a JSON body reads
// it whole through DecodeJSONBody — past MaxRequestBody is a 400 whether
// the length was declared or discovered, and bytes after the top-level
// value are bad JSON, not ignored.
func TestJSONRequestBodiesBounded(t *testing.T) {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(ctrl).Handler()
	post := func(path string, body io.Reader, declared int64) (int, string) {
		r := httptest.NewRequest(http.MethodPost, path, body)
		r.ContentLength = declared
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Code, w.Body.String()
	}
	if code, body := post("/v2/rounds", strings.NewReader(`{"requests":[[1]]}`), 18); code != http.StatusCreated {
		t.Fatalf("begin: %d %s", code, body)
	}
	for _, path := range []string{"/v2/rounds", "/v2/rounds/r1/entries", "/v2/rounds/r1/stage", "/v2/rounds/r1/unmask"} {
		code, body := post(path, strings.NewReader("{}"), MaxRequestBody+1)
		if code != http.StatusBadRequest || !strings.Contains(body, CodeInvalidArgument) {
			t.Errorf("%s, %d bytes declared: %d %s, want 400 invalid_argument", path, MaxRequestBody+1, code, body)
		}
		code, body = post(path, strings.NewReader(`{} {}`), 5)
		if code != http.StatusBadRequest || !strings.Contains(body, CodeBadJSON) {
			t.Errorf("%s, trailing value: %d %s, want 400 bad_json", path, code, body)
		}
	}
	code, body := post("/v2/rounds", io.LimitReader(blanks{}, MaxRequestBody+1), -1)
	if code != http.StatusBadRequest || !strings.Contains(body, CodeInvalidArgument) {
		t.Errorf("chunked body past the limit: %d %s, want 400 invalid_argument", code, body)
	}

	// A row list whose reply frame would pass MaxReplyBody is refused
	// before a row is served.
	n := MaxReplyBody/(FrameSize(1, 4)-FrameSize(0, 4)) + 1
	rows := `{"rows":[` + strings.Repeat("1,", n-1) + `1]}`
	code, body = post("/v2/rounds/r1/entries", strings.NewReader(rows), int64(len(rows)))
	if code != http.StatusBadRequest || !strings.Contains(body, CodeInvalidArgument) {
		t.Errorf("%d-row list: %d %.200s, want 400 invalid_argument", n, code, body)
	}
}

// TestWriteJSONEncodeFailure: a value JSON cannot carry is a 500
// envelope at its declared length, never a bare 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := httptest.NewRecorder()
	WriteJSON(w, http.StatusOK, map[string]any{"f": func() {}})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), CodeInternal) {
		t.Fatalf("reply %d %s, want a 500 internal envelope", w.Code, w.Body)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, w.Body.Len())
	}
}
