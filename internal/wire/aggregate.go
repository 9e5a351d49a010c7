package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/secagg"
)

// ErrDuplicateUpload reports a second payload from the same client
// index in one round (HTTP-level retries are deduplicated by batch id
// before they reach the aggregator, so this is a protocol violation).
var ErrDuplicateUpload = errors.New("wire: duplicate upload for client")

// ErrNoUploads reports an unmask attempt with nothing aggregated.
var ErrNoUploads = errors.New("wire: no uploads to unmask")

// RowSum is one row's exact aggregate: Sum[j] = Σ_c n_c·Δθ_cj and
// Count = Σ_c n_c over the uploading (surviving) clients, decoded from
// the fixed-point word sums. For the subspace codec, non-selected
// coordinates of Sum are zero (they carry no update this round).
type RowSum struct {
	Row   uint64
	Sum   []float32
	Count float32
}

// Result is the outcome of one round's upload aggregation.
type Result struct {
	Codec Codec
	// Rows holds the per-row sums in ascending row order, with rows
	// whose words are all zero (untouched) omitted.
	Rows []RowSum
	// Clients counts the uploads folded into the sums (survivors).
	Clients int
	// Dropouts lists roster members that committed but never uploaded.
	Dropouts []int
	// Bytes is the total payload bytes received.
	Bytes uint64
	// Saturations sums the clients' reported fixed-point clip counts.
	Saturations int
}

// Aggregator is the server side of the upload plane for one round. It
// holds NO secrets: masked payloads fold together by plain uint32
// addition, and dropout recovery uses explicitly revealed pair seeds.
// Codec, roster and domain are learned from the first payload and
// enforced on every subsequent one. Safe for concurrent use.
type Aggregator struct {
	numRows uint64
	dim     int
	round   uint64

	mu       sync.Mutex
	inited   bool
	codec    Codec
	roster   int
	subDim   int
	domain   []uint64 // explicit domain (nil for masked/plaintext)
	sum      []uint32 // masked codecs: running word sum over the domain layout
	rows     map[uint64][]uint32
	uploaded map[int]bool
	bytes    uint64
	sats     int
	result   *Result
}

// NewAggregator creates the round's aggregator for a table of numRows
// rows with Dim-length embeddings. round scopes payload acceptance and
// seeds the subspace coordinate selection.
func NewAggregator(numRows uint64, dim int, round uint64) *Aggregator {
	return &Aggregator{
		numRows:  numRows,
		dim:      dim,
		round:    round,
		rows:     map[uint64][]uint32{},
		uploaded: map[int]bool{},
	}
}

// Add validates and folds one client payload into the running sums.
// The first payload fixes codec, roster, subspace dim and domain; later
// payloads must agree exactly. The whole payload is validated before the
// first word is added, so a rejected upload leaves the sums untouched.
// Add retains nothing of payload: the words are folded before it
// returns and the domain is decoded into a slice of its own, so the
// caller may overwrite or reuse the buffer as soon as Add returns (the
// server's pooled upload bodies and the trainer's pooled payloads do).
func (a *Aggregator) Add(payload []byte) error {
	u, err := a.parse(payload)
	if err != nil {
		return err
	}
	h := u.header

	a.mu.Lock()
	defer a.mu.Unlock()
	if a.result != nil {
		return fmt.Errorf("wire: round %d already unmasked", a.round)
	}
	if !a.inited {
		a.inited = true
		a.codec = h.codec
		a.roster = h.roster
		a.subDim = h.subDim
		if h.codec.Masked() {
			a.domain = u.domain
			a.sum = make([]uint32, len(u.raw)/4)
		}
	} else {
		if h.codec != a.codec {
			return fmt.Errorf("wire: codec %q conflicts with round codec %q", h.codec, a.codec)
		}
		if h.roster != a.roster {
			return fmt.Errorf("wire: roster %d conflicts with round roster %d", h.roster, a.roster)
		}
		if h.subDim != a.subDim {
			return fmt.Errorf("wire: subspace dim %d conflicts with %d", h.subDim, a.subDim)
		}
		if a.codec.Masked() && !equalDomains(u.domain, a.domain) {
			return fmt.Errorf("wire: payload domain (%d rows) does not match the round domain (%d rows)", len(u.domain), len(a.domain))
		}
	}
	if a.uploaded[h.client] {
		return fmt.Errorf("%w %d", ErrDuplicateUpload, h.client)
	}
	a.uploaded[h.client] = true
	a.bytes += uint64(len(payload))
	a.sats += h.sats

	if a.codec == CodecPlaintext {
		stride := a.subDim + 1
		for t, r := range u.domain {
			acc := a.rows[r]
			if acc == nil {
				acc = make([]uint32, stride)
				a.rows[r] = acc
			}
			for w := 0; w < stride; w++ {
				acc[w] += u.words[t*stride+w]
			}
		}
		return nil
	}
	// Masked codecs: fold the raw words straight from the payload (equal
	// domains imply equal lengths, checked exactly by parse).
	for w := range a.sum {
		a.sum[w] += binary.LittleEndian.Uint32(u.raw[4*w:])
	}
	return nil
}

type header struct {
	codec  Codec
	round  uint64
	roster int
	client int
	dim    int
	subDim int
	sats   int
}

// upload is one parsed, fully validated payload. domain is the explicit
// row domain (the client's own rows for plaintext; nil for masked, whose
// domain is the full table). The word vector is decoded into words for
// plaintext; for the masked codecs raw aliases the payload's
// little-endian words, length-checked, so Add folds them without a copy.
type upload struct {
	header
	domain []uint64
	words  []uint32
	raw    []byte
}

// parse decodes and validates a payload against the round geometry.
// Nothing sized by a header field is allocated before the payload is
// known to be long enough to back it.
func (a *Aggregator) parse(payload []byte) (upload, error) {
	var u upload
	if err := checkMagic(payload); err != nil {
		return u, err
	}
	codec, err := codecOf(payload[len(magic)])
	if err != nil {
		return u, err
	}
	h := &u.header
	h.codec = codec
	r := &reader{b: payload, off: len(magic) + 1}
	h.round = r.uvarint()
	h.roster = int(r.uvarint())
	h.client = int(r.uvarint())
	numRows := r.uvarint()
	h.dim = int(r.uvarint())
	h.subDim = int(r.uvarint())
	h.sats = int(r.uvarint())
	if r.err != nil {
		return u, r.err
	}
	if h.round != a.round {
		return u, fmt.Errorf("wire: payload for round %d, aggregator round %d", h.round, a.round)
	}
	if numRows != a.numRows || h.dim != a.dim {
		return u, fmt.Errorf("wire: payload geometry %d×%d, table %d×%d", numRows, h.dim, a.numRows, a.dim)
	}
	if h.roster < 1 || h.client < 0 || h.client >= h.roster {
		return u, fmt.Errorf("wire: client %d outside roster %d", h.client, h.roster)
	}
	if h.sats < 0 {
		return u, fmt.Errorf("wire: saturation count overflows")
	}
	wantK := h.dim
	if codec == CodecSubspace {
		if h.subDim < 1 || h.subDim > h.dim {
			return u, fmt.Errorf("wire: subspace dim %d outside [1, %d]", h.subDim, h.dim)
		}
		wantK = h.subDim
	} else if h.subDim != h.dim {
		return u, fmt.Errorf("wire: codec %q wants subspace dim %d, got %d", codec, h.dim, h.subDim)
	}
	stride := uint64(wantK + 1)

	nDomain := a.numRows
	if codec != CodecMasked {
		nDomain = r.uvarint()
		if r.err != nil {
			return u, r.err
		}
		if nDomain > a.numRows {
			return u, fmt.Errorf("wire: domain of %d rows exceeds table of %d", nDomain, a.numRows)
		}
		// Every domain row takes at least one byte.
		if nDomain > uint64(r.remaining()) {
			return u, fmt.Errorf("wire: domain of %d rows in %d payload bytes", nDomain, r.remaining())
		}
		u.domain = make([]uint64, nDomain)
		prev := uint64(0)
		for i := range u.domain {
			d := r.uvarint()
			if r.err != nil {
				return u, r.err
			}
			if i == 0 {
				prev = d
			} else {
				if d == 0 {
					return u, fmt.Errorf("wire: domain not strictly ascending at index %d", i)
				}
				prev += d
			}
			if prev >= a.numRows {
				return u, fmt.Errorf("wire: domain row %d outside table of %d", prev, a.numRows)
			}
			u.domain[i] = prev
		}
	}
	nWords := nDomain * stride
	if codec != CodecPlaintext {
		// Raw words: the rest of the payload is exactly the word vector.
		if uint64(r.remaining()) != 4*nWords {
			return u, fmt.Errorf("wire: %d word bytes after the header, want %d", r.remaining(), 4*nWords)
		}
		u.raw = payload[r.off:]
		return u, nil
	}
	// Varint words take at least one byte each.
	if nWords > uint64(r.remaining()) {
		return u, fmt.Errorf("wire: %d words in %d payload bytes", nWords, r.remaining())
	}
	u.words = make([]uint32, nWords)
	for i := range u.words {
		u.words[i] = uint32(r.zigzag())
	}
	if r.err != nil {
		return u, r.err
	}
	if r.remaining() != 0 {
		return u, fmt.Errorf("wire: %d trailing bytes after payload", r.remaining())
	}
	return u, nil
}

func equalDomains(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Bytes returns the total payload bytes accepted so far.
func (a *Aggregator) Bytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// Unmask finishes the round: it subtracts the orphaned masks of any
// dropouts using the revealed pair seeds, decodes the word sums and
// returns the per-row aggregates. For masked codecs the reveal set
// must cover exactly survivors × dropouts, each pair once; plaintext
// takes no reveals. Idempotent: after the first success the stored
// result is returned and further reveals are ignored.
func (a *Aggregator) Unmask(reveals []Reveal) (*Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.result != nil {
		return a.result, nil
	}
	if len(a.uploaded) == 0 {
		return nil, ErrNoUploads
	}

	dropouts := []int{}
	for i := 0; i < a.roster; i++ {
		if !a.uploaded[i] {
			dropouts = append(dropouts, i)
		}
	}

	if a.codec.Masked() {
		need := map[[2]int]bool{}
		for s := range a.uploaded {
			for _, d := range dropouts {
				need[[2]int{s, d}] = true
			}
		}
		seen := map[[2]int]bool{}
		for _, rv := range reveals {
			pair := [2]int{rv.Survivor, rv.Dropout}
			if !need[pair] {
				return nil, fmt.Errorf("wire: reveal for pair (%d,%d) is not survivor×dropout", rv.Survivor, rv.Dropout)
			}
			if seen[pair] {
				return nil, fmt.Errorf("wire: duplicate reveal for pair (%d,%d)", rv.Survivor, rv.Dropout)
			}
			seen[pair] = true
			secagg.SubtractOrphanMask(a.sum, rv.Seed, rv.Survivor, rv.Dropout)
		}
		if len(seen) != len(need) {
			return nil, fmt.Errorf("wire: %d reveals cover %d of %d orphaned pairs", len(reveals), len(seen), len(need))
		}
	} else if len(reveals) != 0 {
		return nil, fmt.Errorf("wire: plaintext codec takes no reveals, got %d", len(reveals))
	}

	res := &Result{
		Codec:       a.codec,
		Clients:     len(a.uploaded),
		Dropouts:    dropouts,
		Bytes:       a.bytes,
		Saturations: a.sats,
	}

	decodeRow := func(row uint64, words []uint32) {
		zero := true
		for _, w := range words {
			if w != 0 {
				zero = false
				break
			}
		}
		if zero {
			return
		}
		rs := RowSum{Row: row, Sum: make([]float32, a.dim), Count: secagg.Decode(words[0])}
		if a.codec == CodecSubspace {
			for j, c := range SubspaceCoords(a.round, row, a.dim, a.subDim) {
				rs.Sum[c] = secagg.Decode(words[1+j])
			}
		} else {
			for j := 0; j < a.dim; j++ {
				rs.Sum[j] = secagg.Decode(words[1+j])
			}
		}
		res.Rows = append(res.Rows, rs)
	}

	stride := a.subDim + 1
	switch a.codec {
	case CodecPlaintext:
		ids := make([]uint64, 0, len(a.rows))
		for r := range a.rows {
			ids = append(ids, r)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, r := range ids {
			decodeRow(r, a.rows[r])
		}
	case CodecMasked:
		for r := uint64(0); r < a.numRows; r++ {
			decodeRow(r, a.sum[int(r)*stride:int(r+1)*stride])
		}
	default:
		for t, r := range a.domain {
			decodeRow(r, a.sum[t*stride:(t+1)*stride])
		}
	}
	a.result = res
	return res, nil
}
