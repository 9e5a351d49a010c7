package api

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/fedora"
)

// awkwardFloats are the values a text encoding loses or refuses: NaNs
// with payload bits, the infinities, negative zero, denormals.
var awkwardFloats = []uint32{
	0x7fc00001, 0xffc12345, 0x7f800001, // quiet and signalling NaNs with payloads
	0x7f800000, 0xff800000, // ±Inf
	0x80000000, 0x00000001, 0x807fffff, // −0, smallest and largest denormal
}

// randomFrame draws a frame of n records of the given kind. Entries are
// served, lost and unavailable in turn.
func randomFrame(rng *rand.Rand, kind FrameKind, n, dim int) RowFrame {
	vec := func() []float32 {
		v := make([]float32, dim)
		for j := range v {
			if rng.Intn(4) == 0 {
				v[j] = math.Float32frombits(awkwardFloats[rng.Intn(len(awkwardFloats))])
			} else {
				v[j] = math.Float32frombits(rng.Uint32())
			}
		}
		return v
	}
	f := RowFrame{Kind: kind, Dim: dim}
	for i := 0; i < n; i++ {
		row := rng.Uint64()
		switch kind {
		case FrameEntries:
			e := fedora.EntryResult{Row: row}
			switch i % 3 {
			case 0:
				e.OK, e.Entry = true, vec()
			case 2:
				e.Unavailable = true
			}
			f.Entries = append(f.Entries, e)
		case FrameGradients:
			f.Gradients = append(f.Gradients, fedora.RowGradient{Row: row, Grad: vec(), Samples: int(int32(rng.Uint32()))})
		case FrameAggregates:
			f.Aggregates = append(f.Aggregates, fedora.RowAggregate{Row: row, Sum: vec(), Count: math.Float32frombits(rng.Uint32())})
		}
	}
	return f
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRowFrameRoundTrip: every kind, empty batches, lost and unavailable
// rows and the floats JSON cannot spell come back bit for bit, at
// exactly FrameSize bytes.
func TestRowFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kind := range []FrameKind{FrameEntries, FrameGradients, FrameAggregates} {
		for _, shape := range [][2]int{{0, 16}, {1, 1}, {7, 0}, {5, 4}, {64, 16}} {
			n, dim := shape[0], shape[1]
			in := randomFrame(rng, kind, n, dim)
			b, err := AppendRowFrame(nil, in)
			if err != nil {
				t.Fatalf("kind %d n %d dim %d: encode: %v", kind, n, dim, err)
			}
			if len(b) != FrameSize(n, dim) {
				t.Fatalf("kind %d n %d dim %d: %d bytes, FrameSize says %d", kind, n, dim, len(b), FrameSize(n, dim))
			}
			out, err := DecodeRowFrame(b)
			if err != nil {
				t.Fatalf("kind %d n %d dim %d: decode: %v", kind, n, dim, err)
			}
			if out.Kind != kind || out.Dim != dim || out.Len() != n {
				t.Fatalf("decoded kind %d dim %d len %d, want %d %d %d", out.Kind, out.Dim, out.Len(), kind, dim, n)
			}
			for i := 0; i < n; i++ {
				switch kind {
				case FrameEntries:
					w, g := in.Entries[i], out.Entries[i]
					if g.Row != w.Row || g.OK != w.OK || g.Unavailable != w.Unavailable || !sameBits(g.Entry, w.Entry) {
						t.Fatalf("entry %d = %+v, want %+v", i, g, w)
					}
				case FrameGradients:
					w, g := in.Gradients[i], out.Gradients[i]
					if g.Row != w.Row || g.Samples != w.Samples || !sameBits(g.Grad, w.Grad) {
						t.Fatalf("gradient %d = %+v, want %+v", i, g, w)
					}
				case FrameAggregates:
					w, g := in.Aggregates[i], out.Aggregates[i]
					if g.Row != w.Row || math.Float32bits(g.Count) != math.Float32bits(w.Count) || !sameBits(g.Sum, w.Sum) {
						t.Fatalf("aggregate %d = %+v, want %+v", i, g, w)
					}
				}
			}
		}
	}
}

// TestRowFrameSliceSelect: Slice shares the records; Select copies the
// listed ones in one allocation, rows lowered by base, vectors shared.
func TestRowFrameSliceSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []FrameKind{FrameEntries, FrameGradients, FrameAggregates} {
		in := randomFrame(rng, kind, 10, 3)
		same := func(got RowFrame, k, i int, base uint64) {
			t.Helper()
			gr, gv := got.Record(k)
			wr, wv := in.Record(i)
			if gr != wr-base || len(gv) != len(wv) || (len(wv) > 0 && &gv[0] != &wv[0]) {
				t.Fatalf("kind %d record %d = (%d, %p), want record %d (%d, %p) lowered by %d", kind, k, gr, gv, i, wr, wv, base)
			}
		}
		sl := in.Slice(2, 7)
		if sl.Kind != kind || sl.Dim != 3 || sl.Len() != 5 {
			t.Fatalf("kind %d: slice is kind %d dim %d len %d", kind, sl.Kind, sl.Dim, sl.Len())
		}
		for k := 0; k < 5; k++ {
			same(sl, k, 2+k, 0)
		}
		idx := []int{7, 1, 4}
		sel := in.Select(idx, 5)
		if sel.Kind != kind || sel.Dim != 3 || sel.Len() != len(idx) {
			t.Fatalf("kind %d: select is kind %d dim %d len %d", kind, sel.Kind, sel.Dim, sel.Len())
		}
		for k, i := range idx {
			same(sel, k, i, 5)
		}
		if allocs := testing.AllocsPerRun(20, func() { in.Select(idx, 5) }); allocs != 1 {
			t.Fatalf("kind %d: select made %v allocations, want 1", kind, allocs)
		}
	}
}

// TestRowFrameEncodeRejects: a vector of the wrong width or a sample
// count past int32 fails the encode instead of writing a frame the other
// side would misread.
func TestRowFrameEncodeRejects(t *testing.T) {
	for name, f := range map[string]RowFrame{
		"wide gradient":   {Kind: FrameGradients, Dim: 2, Gradients: []fedora.RowGradient{{Grad: make([]float32, 3), Samples: 1}}},
		"nil aggregate":   {Kind: FrameAggregates, Dim: 2, Aggregates: []fedora.RowAggregate{{Count: 1}}},
		"short entry":     {Kind: FrameEntries, Dim: 2, Entries: []fedora.EntryResult{{OK: true, Entry: make([]float32, 1)}}},
		"samples past 32": {Kind: FrameGradients, Dim: 1, Gradients: []fedora.RowGradient{{Grad: make([]float32, 1), Samples: 1 << 31}}},
		"no kind":         {Dim: 1},
	} {
		if b, err := AppendRowFrame(nil, f); err == nil {
			t.Errorf("%s: encoded to %d bytes, want an error", name, len(b))
		}
	}
}

// TestRowFrameLengthIsPublic: a reply's length depends on (n, dim) only
// — not on the values, and not on how many rows ε-FDP lost, which the
// JSON reply's omitempty gave away.
func TestRowFrameLengthIsPublic(t *testing.T) {
	const n, dim = 40, 16
	rng := rand.New(rand.NewSource(5))
	served := RowFrame{Kind: FrameEntries, Dim: dim}
	lost := RowFrame{Kind: FrameEntries, Dim: dim}
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()*2e6 - 1e6
		}
		served.Entries = append(served.Entries, fedora.EntryResult{Row: uint64(i), OK: true, Entry: v})
		lost.Entries = append(lost.Entries, fedora.EntryResult{Row: uint64(i) << 40, Unavailable: i%2 == 0})
	}
	a, errA := AppendRowFrame(nil, served)
	b, errB := AppendRowFrame(nil, lost)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a) != len(b) || len(a) != FrameSize(n, dim) {
		t.Fatalf("all served %d bytes, all lost %d bytes, FrameSize %d: want all equal", len(a), len(b), FrameSize(n, dim))
	}
}

// TestDecodeRowFrameAllocs: a decoded batch is the record slice and one
// backing array, whatever n is.
func TestDecodeRowFrameAllocs(t *testing.T) {
	b, err := AppendRowFrame(nil, randomFrame(rand.New(rand.NewSource(1)), FrameEntries, 100, 16))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeRowFrame(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decode made %v allocations, want ≤ 2", allocs)
	}
}

// FuzzDecodeRowFrame: no input panics the decoder or makes it allocate
// beyond a small multiple of its own length (n and dim are checked
// against len before any make), and whatever decodes re-encodes.
func FuzzDecodeRowFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for _, kind := range []FrameKind{FrameEntries, FrameGradients, FrameAggregates} {
		b, _ := AppendRowFrame(nil, randomFrame(rng, kind, 3, 2))
		f.Add(b)
	}
	huge := []byte(frameMagic + "\x01")
	huge = binary.LittleEndian.AppendUint32(huge, math.MaxUint32)
	huge = binary.LittleEndian.AppendUint32(huge, math.MaxUint32)
	f.Add(huge)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeRowFrame(b)
		if err != nil {
			return
		}
		if FrameSize(fr.Len(), fr.Dim) != len(b) {
			t.Fatalf("decoded %d records of dim %d from %d bytes", fr.Len(), fr.Dim, len(b))
		}
		// Fields a kind does not use are not carried, so the first
		// re-encoding is canonical and must be a fixed point.
		canon, err := AppendRowFrame(nil, fr)
		if err != nil || len(canon) != len(b) {
			t.Fatalf("re-encode: %d bytes from %d, err %v", len(canon), len(b), err)
		}
		fr2, err := DecodeRowFrame(canon)
		if err != nil {
			t.Fatalf("decode of the re-encoding: %v", err)
		}
		if again, _ := AppendRowFrame(nil, fr2); !bytes.Equal(again, canon) {
			t.Fatalf("re-encoding is not a fixed point:\n 1st %x\n 2nd %x", canon, again)
		}
	})
}

// TestEntriesReplyDeclaresLength: an /entries reply of any size goes
// out at its declared length, FrameSize of the public (n, Dim), so the
// SDK reads it in one buffer.
func TestEntriesReplyDeclaresLength(t *testing.T) {
	srv, _ := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[1,2,3]]}`)
	rows := strings.TrimSuffix(strings.Repeat("1,2,3,", 100), ",") // 300 rows: a 8.7 KB reply
	resp, err := http.Post(srv.URL+"/v2/rounds/"+info.RoundID+"/entries", "application/json",
		strings.NewReader(`{"rows":[`+rows+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != RowFrameContentType {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp.ContentLength != int64(len(body)) || len(body) != FrameSize(300, 4) {
		t.Fatalf("declared %d bytes, sent %d, FrameSize(300, 4) = %d", resp.ContentLength, len(body), FrameSize(300, 4))
	}
}

// TestNonFiniteRowServedOverHTTP: a row that diverged to ±Inf or NaN is
// still served, bit for bit — JSON refused it after the 200 had gone
// out, leaving an empty reply — and the one JSON route that carries
// floats, the PeekRow backdoor, answers it with a 500 envelope.
func TestNonFiniteRowServedOverHTTP(t *testing.T) {
	srv, ctrl := newV2TestServer(t)
	info := beginV2(t, srv.URL, `{"requests":[[7]]}`)
	inf, nan := float32(math.Inf(1)), math.Float32frombits(0x7fc00001)
	grads := frameBody(RowFrame{Kind: FrameGradients, Dim: 4, Gradients: []GradientRequest{
		{Row: 7, Grad: []float32{inf, -inf, nan, 1}, Samples: 1}}})
	if status, data := doReq(t, http.MethodPost, srv.URL+"/v2/rounds/"+info.RoundID+"/gradients", grads); status != http.StatusOK {
		t.Fatalf("non-finite gradient: status %d body %s", status, data)
	}
	finishV2(t, srv.URL, info.RoundID)
	want, err := ctrl.PeekRow(7)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(want[0]), -1) || !math.IsInf(float64(want[1]), 1) || want[2] == want[2] {
		t.Fatalf("row 7 = %v, want [-Inf +Inf NaN _]", want)
	}

	wantErr(t, http.MethodGet, srv.URL+"/v2/rows/7", "", http.StatusInternalServerError, CodeInternal)

	info = beginV2(t, srv.URL, `{"requests":[[7]]}`)
	got, err := serveRow(srv.URL, info.RoundID, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || !sameBits(got.Entry, want) {
		t.Fatalf("served %v (ok %v), want the bits of %v", got.Entry, got.OK, want)
	}
}
