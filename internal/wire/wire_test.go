package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/secagg"
)

// clientData is one synthetic client's round contribution.
type clientData struct {
	rows    []uint64
	deltas  [][]float32
	samples int
}

func synthClients(rng *rand.Rand, n int, numRows uint64, dim int) []clientData {
	out := make([]clientData, n)
	for c := range out {
		touched := 1 + rng.Intn(5)
		seen := map[uint64]bool{}
		for len(seen) < touched {
			seen[uint64(rng.Intn(int(numRows)))] = true
		}
		rows := make([]uint64, 0, touched)
		for r := range seen {
			rows = append(rows, r)
		}
		for i := range rows {
			for j := i + 1; j < len(rows); j++ {
				if rows[j] < rows[i] {
					rows[i], rows[j] = rows[j], rows[i]
				}
			}
		}
		deltas := make([][]float32, len(rows))
		for i := range deltas {
			d := make([]float32, dim)
			for j := range d {
				d[j] = float32(rng.NormFloat64()) * 0.05
			}
			deltas[i] = d
		}
		out[c] = clientData{rows: rows, deltas: deltas, samples: 1 + rng.Intn(30)}
	}
	return out
}

func union(clients []clientData) []uint64 {
	seen := map[uint64]bool{}
	for _, c := range clients {
		for _, r := range c.rows {
			seen[r] = true
		}
	}
	out := make([]uint64, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// aggregate runs the full client→server round for one codec and
// returns the result; uploaders lists the client indices that upload
// (the rest of the roster drops out after mask commitment).
func aggregate(t *testing.T, p Params, clients []clientData, uploaders []int) *Result {
	t.Helper()
	pl, err := NewPlan(p, union(clients))
	if err != nil {
		t.Fatalf("NewPlan(%s): %v", p.Codec, err)
	}
	agg := NewAggregator(p.NumRows, p.Dim, p.Round)
	up := map[int]bool{}
	for _, c := range uploaders {
		up[c] = true
		payload, _, err := pl.Encode(c, clients[c].rows, clients[c].deltas, clients[c].samples)
		if err != nil {
			t.Fatalf("Encode(%s, client %d): %v", p.Codec, c, err)
		}
		if err := agg.Add(payload); err != nil {
			t.Fatalf("Add(%s, client %d): %v", p.Codec, c, err)
		}
	}
	dropouts := []int{}
	for c := 0; c < p.Roster; c++ {
		if !up[c] {
			dropouts = append(dropouts, c)
		}
	}
	res, err := agg.Unmask(pl.Reveals(uploaders, dropouts))
	if err != nil {
		t.Fatalf("Unmask(%s): %v", p.Codec, err)
	}
	return res
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// expectedSums replays the quantization arithmetic directly: per-row
// uint32 word sums of Encode(n_c) and Encode(n_c·Δ) over uploaders.
func expectedSums(clients []clientData, uploaders []int, dim int) map[uint64][]uint32 {
	out := map[uint64][]uint32{}
	for _, c := range uploaders {
		cd := clients[c]
		for i, r := range cd.rows {
			acc := out[r]
			if acc == nil {
				acc = make([]uint32, dim+1)
				out[r] = acc
			}
			acc[0] += secagg.Encode(float32(cd.samples))
			for j := 0; j < dim; j++ {
				acc[1+j] += secagg.Encode(float32(cd.samples) * cd.deltas[i][j])
			}
		}
	}
	return out
}

func checkExact(t *testing.T, res *Result, want map[uint64][]uint32, dim int) {
	t.Helper()
	seen := map[uint64]bool{}
	prev := int64(-1)
	for _, rs := range res.Rows {
		if int64(rs.Row) <= prev {
			t.Fatalf("result rows not strictly ascending at %d", rs.Row)
		}
		prev = int64(rs.Row)
		seen[rs.Row] = true
		w := want[rs.Row]
		if w == nil {
			t.Fatalf("unexpected row %d in result", rs.Row)
		}
		if got, wantC := rs.Count, secagg.Decode(w[0]); got != wantC {
			t.Fatalf("row %d count %v, want %v", rs.Row, got, wantC)
		}
		for j := 0; j < dim; j++ {
			if got, wantS := rs.Sum[j], secagg.Decode(w[1+j]); got != wantS {
				t.Fatalf("row %d coord %d sum %v, want %v", rs.Row, j, got, wantS)
			}
		}
	}
	for r, w := range want {
		zero := true
		for _, v := range w {
			if v != 0 {
				zero = false
			}
		}
		if !zero && !seen[r] {
			t.Fatalf("row %d missing from result", r)
		}
	}
}

func TestParseCodec(t *testing.T) {
	for _, c := range Codecs() {
		got, err := ParseCodec(string(c))
		if err != nil || got != c {
			t.Fatalf("ParseCodec(%q) = %q, %v", c, got, err)
		}
	}
	for _, s := range []string{"", "legacy"} {
		if got, err := ParseCodec(s); err != nil || got != CodecLegacy {
			t.Fatalf("ParseCodec(%q) = %q, %v", s, got, err)
		}
	}
	if _, err := ParseCodec("gzip"); err == nil {
		t.Fatal("ParseCodec accepted unknown codec")
	}
}

func TestPlaintextExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clients := synthClients(rng, 5, 64, 8)
	p := Params{Codec: CodecPlaintext, NumRows: 64, Dim: 8, Round: 3, Roster: 5}
	res := aggregate(t, p, clients, allOf(5))
	if res.Clients != 5 || len(res.Dropouts) != 0 {
		t.Fatalf("clients=%d dropouts=%v", res.Clients, res.Dropouts)
	}
	checkExact(t, res, expectedSums(clients, allOf(5), 8), 8)
}

// TestCrossCodecBitIdentity is the core exactness contract: plaintext,
// masked and masked-sparse reconstruct IDENTICAL per-row sums.
func TestCrossCodecBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	clients := synthClients(rng, 6, 96, 8)
	key := DeriveSessionKey(42, 9)
	var results []*Result
	for _, codec := range []Codec{CodecPlaintext, CodecMasked, CodecMaskedSparse} {
		p := Params{Codec: codec, NumRows: 96, Dim: 8, Round: 9, Roster: 6, SessionKey: key}
		results = append(results, aggregate(t, p, clients, allOf(6)))
	}
	for i := 1; i < len(results); i++ {
		if len(results[i].Rows) != len(results[0].Rows) {
			t.Fatalf("codec %s: %d rows, plaintext %d", results[i].Codec, len(results[i].Rows), len(results[0].Rows))
		}
		for r := range results[i].Rows {
			a, b := results[0].Rows[r], results[i].Rows[r]
			if a.Row != b.Row || a.Count != b.Count || !reflect.DeepEqual(a.Sum, b.Sum) {
				t.Fatalf("codec %s row %d diverges from plaintext: %+v vs %+v", results[i].Codec, a.Row, b, a)
			}
		}
	}
}

// TestMaskedPayloadHidesUpdate checks a masked upload reveals nothing
// recognizable: it differs from its own unmasked encoding.
func TestMaskedPayloadHidesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	clients := synthClients(rng, 3, 32, 4)
	key := DeriveSessionKey(1, 1)
	un := union(clients)
	masked, _ := NewPlan(Params{Codec: CodecMaskedSparse, NumRows: 32, Dim: 4, Round: 1, Roster: 3, SessionKey: key}, un)
	keyless, _ := NewPlan(Params{Codec: CodecMaskedSparse, NumRows: 32, Dim: 4, Round: 1, Roster: 1}, un)
	a, _, err := masked.Encode(0, clients[0].rows, clients[0].deltas, clients[0].samples)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := keyless.Encode(0, clients[0].rows, clients[0].deltas, clients[0].samples)
	if err != nil {
		t.Fatal(err)
	}
	// Same layout, but the masked words must not leak the raw words.
	if bytes.Equal(a[len(a)-16:], b[len(b)-16:]) {
		t.Fatal("masked payload tail equals unmasked tail")
	}
}

// TestDropoutUnmask: a roster member vanishes after mask commitment;
// the survivors reveal the orphaned pair seeds; the reconstructed sum
// equals the survivors-only plaintext sum (satellite 3, unit level).
func TestDropoutUnmask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	clients := synthClients(rng, 5, 80, 8)
	key := DeriveSessionKey(5, 2)
	survivors := []int{0, 1, 3, 4} // client 2 drops out
	for _, codec := range []Codec{CodecMasked, CodecMaskedSparse} {
		p := Params{Codec: codec, NumRows: 80, Dim: 8, Round: 2, Roster: 5, SessionKey: key}
		res := aggregate(t, p, clients, survivors)
		if res.Clients != 4 || len(res.Dropouts) != 1 || res.Dropouts[0] != 2 {
			t.Fatalf("%s: clients=%d dropouts=%v", codec, res.Clients, res.Dropouts)
		}
		checkExact(t, res, expectedSums(clients, survivors, 8), 8)
	}
}

func TestUnmaskRevealValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	clients := synthClients(rng, 3, 32, 4)
	key := DeriveSessionKey(6, 4)
	p := Params{Codec: CodecMaskedSparse, NumRows: 32, Dim: 4, Round: 4, Roster: 3, SessionKey: key}
	build := func() (*Plan, *Aggregator) {
		pl, err := NewPlan(p, union(clients))
		if err != nil {
			t.Fatal(err)
		}
		agg := NewAggregator(32, 4, 4)
		for _, c := range []int{0, 2} { // client 1 drops
			payload, _, err := pl.Encode(c, clients[c].rows, clients[c].deltas, clients[c].samples)
			if err != nil {
				t.Fatal(err)
			}
			if err := agg.Add(payload); err != nil {
				t.Fatal(err)
			}
		}
		return pl, agg
	}

	pl, agg := build()
	if _, err := agg.Unmask(nil); err == nil {
		t.Fatal("Unmask accepted missing reveals with a dropout")
	}
	// A failed unmask must not poison the round: the right reveals work.
	good := pl.Reveals([]int{0, 2}, []int{1})
	res, err := agg.Unmask(good)
	if err != nil {
		t.Fatalf("Unmask after failed attempt: %v", err)
	}
	checkExact(t, res, expectedSums(clients, []int{0, 2}, 4), 4)
	// Idempotent: second call returns the same result.
	res2, err := agg.Unmask(nil)
	if err != nil || res2 != res {
		t.Fatalf("repeat Unmask = %p, %v; want stored %p", res2, err, res)
	}

	_, agg = build()
	bad := pl.Reveals([]int{0, 2}, []int{1})
	bad = append(bad, Reveal{Survivor: 0, Dropout: 0})
	if _, err := agg.Unmask(bad); err == nil {
		t.Fatal("Unmask accepted a non-dropout pair reveal")
	}
	_, agg = build()
	if _, err := agg.Unmask(append(good, good[0])); err == nil {
		t.Fatal("Unmask accepted a duplicate reveal")
	}
}

func TestSubspaceCoordsDeterministicAndValid(t *testing.T) {
	for _, tc := range []struct{ dim, sub int }{{8, 2}, {16, 4}, {32, 32}, {5, 1}} {
		for row := uint64(0); row < 20; row++ {
			a := SubspaceCoords(77, row, tc.dim, tc.sub)
			b := SubspaceCoords(77, row, tc.dim, tc.sub)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("SubspaceCoords not deterministic for row %d", row)
			}
			if len(a) != min(tc.sub, tc.dim) {
				t.Fatalf("got %d coords, want %d", len(a), tc.sub)
			}
			for i, c := range a {
				if c < 0 || c >= tc.dim {
					t.Fatalf("coord %d outside [0,%d)", c, tc.dim)
				}
				if i > 0 && c <= a[i-1] {
					t.Fatalf("coords not strictly ascending: %v", a)
				}
			}
		}
	}
	// Different rounds must reselect (with overwhelming probability over
	// 20 rows this differs somewhere).
	same := true
	for row := uint64(0); row < 20; row++ {
		if !reflect.DeepEqual(SubspaceCoords(1, row, 16, 4), SubspaceCoords(2, row, 16, 4)) {
			same = false
		}
	}
	if same {
		t.Fatal("subspace selection identical across rounds")
	}
}

// TestSubspaceExactInSubspace: selected coordinates carry the exact
// plaintext sums; non-selected coordinates are exactly zero.
func TestSubspaceExactInSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	clients := synthClients(rng, 4, 64, 8)
	key := DeriveSessionKey(3, 6)
	p := Params{Codec: CodecSubspace, NumRows: 64, Dim: 8, SubspaceDim: 3, Round: 6, Roster: 4, SessionKey: key}
	res := aggregate(t, p, clients, allOf(4))
	want := expectedSums(clients, allOf(4), 8)
	for _, rs := range res.Rows {
		w := want[rs.Row]
		if w == nil {
			t.Fatalf("unexpected row %d", rs.Row)
		}
		sel := map[int]bool{}
		for _, c := range SubspaceCoords(6, rs.Row, 8, 3) {
			sel[c] = true
		}
		if rs.Count != secagg.Decode(w[0]) {
			t.Fatalf("row %d count %v", rs.Row, rs.Count)
		}
		for j := 0; j < 8; j++ {
			if sel[j] {
				if rs.Sum[j] != secagg.Decode(w[1+j]) {
					t.Fatalf("row %d selected coord %d: %v, want %v", rs.Row, j, rs.Sum[j], secagg.Decode(w[1+j]))
				}
			} else if rs.Sum[j] != 0 {
				t.Fatalf("row %d non-selected coord %d: %v, want 0", rs.Row, j, rs.Sum[j])
			}
		}
	}
}

// TestCodecByteSizes documents the compression story: masked-sparse
// and subspace payloads must undercut the full-table masked baseline
// by a wide margin on a sparse round.
func TestCodecByteSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	clients := synthClients(rng, 8, 4096, 16) // big table, few touched rows
	key := DeriveSessionKey(9, 12)
	sizes := map[Codec]int{}
	for _, codec := range Codecs() {
		p := Params{Codec: codec, NumRows: 4096, Dim: 16, Round: 12, Roster: 8, SessionKey: key}
		pl, err := NewPlan(p, union(clients))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for c := range clients {
			payload, _, err := pl.Encode(c, clients[c].rows, clients[c].deltas, clients[c].samples)
			if err != nil {
				t.Fatal(err)
			}
			total += len(payload)
		}
		sizes[codec] = total
	}
	if sizes[CodecMaskedSparse]*5 > sizes[CodecMasked] {
		t.Fatalf("masked-sparse %dB not ≥5× smaller than masked %dB", sizes[CodecMaskedSparse], sizes[CodecMasked])
	}
	if sizes[CodecSubspace] >= sizes[CodecMaskedSparse] {
		t.Fatalf("subspace %dB not smaller than masked-sparse %dB", sizes[CodecSubspace], sizes[CodecMaskedSparse])
	}
	if sizes[CodecPlaintext] >= sizes[CodecMaskedSparse] {
		t.Fatalf("plaintext %dB not smaller than masked-sparse %dB", sizes[CodecPlaintext], sizes[CodecMaskedSparse])
	}
}

func TestAggregatorRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	clients := synthClients(rng, 2, 32, 4)
	key := DeriveSessionKey(2, 5)
	p := Params{Codec: CodecMaskedSparse, NumRows: 32, Dim: 4, Round: 5, Roster: 2, SessionKey: key}
	pl, err := NewPlan(p, union(clients))
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := pl.Encode(0, clients[0].rows, clients[0].deltas, clients[0].samples)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		agg     *Aggregator
		payload []byte
	}{
		"bad magic":   {NewAggregator(32, 4, 5), append([]byte("NOPE"), payload[4:]...)},
		"bad codec":   {NewAggregator(32, 4, 5), append(append([]byte{}, payload[:4]...), append([]byte{99}, payload[5:]...)...)},
		"wrong round": {NewAggregator(32, 4, 6), payload},
		"wrong rows":  {NewAggregator(64, 4, 5), payload},
		"wrong dim":   {NewAggregator(32, 8, 5), payload},
		"truncated":   {NewAggregator(32, 4, 5), payload[:len(payload)-3]},
		"trailing":    {NewAggregator(32, 4, 5), append(append([]byte{}, payload...), 0)},
		"old version": {NewAggregator(32, 4, 5), append([]byte("FWR1"), payload[4:]...)},
		// A header alone: promises a word vector the payload does not hold.
		"short masked": {NewAggregator(1<<20, 16, 5), headerOnly(CodecMasked, 5, 2, 0, 1<<20, 16, 16, 0)},
		"short sparse": {NewAggregator(1<<20, 16, 5), headerOnly(CodecMaskedSparse, 5, 2, 0, 1<<20, 16, 16, 0, 1<<20)},
		"short plain":  {NewAggregator(1<<20, 16, 5), headerOnly(CodecPlaintext, 5, 2, 0, 1<<20, 16, 16, 0, 1<<20)},
		"huge sats":    {NewAggregator(32, 4, 5), headerOnly(CodecMaskedSparse, 5, 2, 0, 32, 4, 4, 1<<63, 0)},
	}
	for name, tc := range cases {
		if err := tc.agg.Add(tc.payload); err == nil {
			t.Fatalf("%s: Add accepted malformed payload", name)
		}
	}

	agg := NewAggregator(32, 4, 5)
	if err := agg.Add(payload); err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(payload); err == nil {
		t.Fatal("duplicate upload accepted")
	}
	// Conflicting domain from a differently-planned payload.
	other, _ := NewPlan(p, []uint64{0, 1, 2, 3})
	p2, _, err := other.Encode(1, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(p2); err == nil {
		t.Fatal("conflicting domain accepted")
	}
}

// headerOnly builds a payload that stops after its header fields:
// round | roster | client | numRows | dim | subDim | sats [| domainLen].
func headerOnly(c Codec, fields ...uint64) []byte {
	out := append(magic[:len(magic):len(magic)], codecByte(c))
	for _, f := range fields {
		out = putUvarint(out, f)
	}
	return out
}

// TestParseValidatesBeforeAllocating: a ~20-byte header over a 2^20-row
// table must be refused before anything sized by its fields is
// allocated (the word vector it promises would be ~71 MB).
func TestParseValidatesBeforeAllocating(t *testing.T) {
	agg := NewAggregator(1<<20, 16, 5)
	short := headerOnly(CodecMasked, 5, 2, 0, 1<<20, 16, 16, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := agg.Add(short)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only masked payload accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte payload allocated %d bytes", len(short), grew)
	}
}

// TestOldPayloadVersionRefused: FWR1 senders mask with the retired
// SHA-256 stream; both entry points refuse them by name.
func TestOldPayloadVersionRefused(t *testing.T) {
	pl, err := NewPlan(Params{Codec: CodecMaskedSparse, NumRows: 32, Dim: 4, Round: 5, Roster: 2}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := pl.Encode(0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload[:4]) != "FWR2" {
		t.Fatalf("payload magic %q, want FWR2", payload[:4])
	}
	old := append([]byte("FWR1"), payload[4:]...)
	if _, err := PayloadCodec(old); err == nil || !strings.Contains(err.Error(), "FWR1") {
		t.Errorf("PayloadCodec(FWR1 payload) = %v, want an error naming FWR1", err)
	}
	if err := NewAggregator(32, 4, 5).Add(old); err == nil || !strings.Contains(err.Error(), "FWR1") {
		t.Errorf("Add(FWR1 payload) = %v, want an error naming FWR1", err)
	}
}

// TestRejectedUploadLeavesSumUntouched: every check runs before the
// first word is folded in, so refused payloads between two good ones
// cannot disturb the exact sum.
func TestRejectedUploadLeavesSumUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	clients := synthClients(rng, 2, 32, 4)
	for _, codec := range []Codec{CodecPlaintext, CodecMasked, CodecMaskedSparse} {
		p := Params{Codec: codec, NumRows: 32, Dim: 4, Round: 5, Roster: 2, SessionKey: DeriveSessionKey(3, 5)}
		pl, err := NewPlan(p, union(clients))
		if err != nil {
			t.Fatal(err)
		}
		var payloads [2][]byte
		for c := range payloads {
			if payloads[c], _, err = pl.Encode(c, clients[c].rows, clients[c].deltas, clients[c].samples); err != nil {
				t.Fatal(err)
			}
		}
		otherRoster := p
		otherRoster.Roster = 3
		pl3, _ := NewPlan(otherRoster, union(clients))
		wrongRoster, _, _ := pl3.Encode(1, clients[1].rows, clients[1].deltas, clients[1].samples)
		pld, _ := NewPlan(p, []uint64{0, 1, 2, 3})
		wrongDomain, _, _ := pld.Encode(1, nil, nil, 1)

		agg := NewAggregator(32, 4, 5)
		if err := agg.Add(payloads[0]); err != nil {
			t.Fatal(err)
		}
		bad := map[string][]byte{
			"duplicate":    payloads[0],
			"wrong roster": wrongRoster,
			"truncated":    payloads[1][:len(payloads[1])-1],
		}
		if codec == CodecMaskedSparse {
			bad["wrong domain"] = wrongDomain
		}
		for name, b := range bad {
			if err := agg.Add(b); err == nil {
				t.Fatalf("%s/%s: accepted", codec, name)
			}
		}
		if err := agg.Add(payloads[1]); err != nil {
			t.Fatalf("%s: good upload after rejected ones: %v", codec, err)
		}
		res, err := agg.Unmask(nil)
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, res, expectedSums(clients, allOf(2), 4), 4)
		if want := uint64(len(payloads[0]) + len(payloads[1])); res.Bytes != want {
			t.Errorf("%s: %d bytes accounted, want %d", codec, res.Bytes, want)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	p := Params{Codec: CodecPlaintext, NumRows: 16, Dim: 2, Round: 1, Roster: 2}
	pl, err := NewPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := [][]float32{{1, 2}}
	if _, _, err := pl.Encode(2, []uint64{1}, d, 1); err == nil {
		t.Fatal("client outside roster accepted")
	}
	if _, _, err := pl.Encode(0, []uint64{16}, d, 1); err == nil {
		t.Fatal("row outside table accepted")
	}
	if _, _, err := pl.Encode(0, []uint64{3, 3}, [][]float32{{1, 2}, {1, 2}}, 1); err == nil {
		t.Fatal("non-ascending rows accepted")
	}
	if _, _, err := pl.Encode(0, []uint64{1}, [][]float32{{1}}, 1); err == nil {
		t.Fatal("wrong-dim delta accepted")
	}
	if _, err := NewPlan(Params{Codec: CodecMaskedSparse, NumRows: 4, Dim: 2, Roster: 2}, []uint64{2, 1}); err == nil {
		t.Fatal("unsorted union accepted")
	}
	if _, err := NewPlan(Params{Codec: "zip", NumRows: 4, Dim: 2, Roster: 2}, nil); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestSaturationCounting: values beyond the fixed-point range must be
// counted and surfaced through the aggregate result.
func TestSaturationCounting(t *testing.T) {
	p := Params{Codec: CodecPlaintext, NumRows: 8, Dim: 2, Round: 1, Roster: 1}
	pl, err := NewPlan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := float32(math.MaxInt32) // n_c·Δ far beyond MaxAbs
	payload, sats, err := pl.Encode(0, []uint64{3}, [][]float32{{big, 0.5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sats != 1 {
		t.Fatalf("sats = %d, want 1", sats)
	}
	agg := NewAggregator(8, 2, 1)
	if err := agg.Add(payload); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Unmask(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturations != 1 {
		t.Fatalf("result saturations = %d, want 1", res.Saturations)
	}
}

// FuzzAggregatorParse: arbitrary bytes must never panic the parser.
func FuzzAggregatorParse(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	clients := synthClients(rng, 2, 32, 4)
	for _, codec := range Codecs() {
		pl, err := NewPlan(Params{Codec: codec, NumRows: 32, Dim: 4, Round: 2, Roster: 2}, union(clients))
		if err != nil {
			continue
		}
		p, _, err := pl.Encode(0, clients[0].rows, clients[0].deltas, clients[0].samples)
		if err == nil {
			f.Add(p)
		}
	}
	f.Add([]byte("FWR2"))
	f.Add(headerOnly(CodecMasked, 2, 2, 0, 32, 4, 4, 0)) // header, no words
	f.Fuzz(func(t *testing.T, payload []byte) {
		agg := NewAggregator(32, 4, 2)
		_ = agg.Add(payload) // must not panic
	})
}

// FuzzSparseRoundTrip: any (rows, deltas, samples) shape survives the
// sparse encode→parse→decode round trip exactly at fixed-point scale.
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(99), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRows, dim8 uint8) {
		dim := int(dim8%16) + 1
		numRows := uint64(64)
		rng := rand.New(rand.NewSource(seed))
		n := int(nRows%8) + 1
		seen := map[uint64]bool{}
		for len(seen) < n {
			seen[uint64(rng.Intn(64))] = true
		}
		c := clientData{samples: 1 + rng.Intn(40)}
		for r := range seen {
			c.rows = append(c.rows, r)
		}
		for i := range c.rows {
			for j := i + 1; j < len(c.rows); j++ {
				if c.rows[j] < c.rows[i] {
					c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
				}
			}
		}
		for range c.rows {
			d := make([]float32, dim)
			for j := range d {
				d[j] = float32(rng.NormFloat64())
			}
			c.deltas = append(c.deltas, d)
		}
		pl, err := NewPlan(Params{Codec: CodecPlaintext, NumRows: numRows, Dim: dim, Round: 1, Roster: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := pl.Encode(0, c.rows, c.deltas, c.samples)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewAggregator(numRows, dim, 1)
		if err := agg.Add(payload); err != nil {
			t.Fatal(err)
		}
		res, err := agg.Unmask(nil)
		if err != nil {
			t.Fatal(err)
		}
		byRow := map[uint64]RowSum{}
		for _, rs := range res.Rows {
			byRow[rs.Row] = rs
		}
		for i, r := range c.rows {
			rs, ok := byRow[r]
			if !ok {
				// All-zero rows are legitimately omitted.
				w := secagg.Encode(float32(c.samples))
				if w != 0 {
					t.Fatalf("row %d with count word %d missing", r, w)
				}
				continue
			}
			if want := secagg.Decode(secagg.Encode(float32(c.samples))); rs.Count != want {
				t.Fatalf("row %d count %v, want %v", r, rs.Count, want)
			}
			for j := 0; j < dim; j++ {
				want := secagg.Decode(secagg.Encode(float32(c.samples) * c.deltas[i][j]))
				if rs.Sum[j] != want {
					t.Fatalf("row %d coord %d: %v, want %v", r, j, rs.Sum[j], want)
				}
			}
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
