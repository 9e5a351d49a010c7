package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/secagg"
)

// payload layout (all codecs):
//
//	magic "FWR2" (the version names the mask stream, see the package
//	    doc; the layout alone cannot tell an FWR1 sender apart, so
//	    checkMagic refuses it by name)
//	codec byte
//	uvarint round | roster | clientIndex | numRows | dim | subDim | saturations
//	uvarint domainLen + delta-coded row ids   (omitted for masked: the
//	    domain is implicitly the full table [0, NumRows))
//	words: domainLen rows × (1 count word + k gradient words), where
//	    k = dim (subDim for subspace).
//	    plaintext: zigzag varints (sparse deltas compress well)
//	    masked*:   raw little-endian uint32 (masked words are uniformly
//	               random — varint coding would EXPAND them)
var magic = [4]byte{'F', 'W', 'R', '2'}

// Plan is one round's client-side encoding plan: the agreed Params plus
// the agreed word-vector domain. All roster members must build the plan
// from the same (Params, union) or the pairwise masks will not align.
type Plan struct {
	p      Params
	k      int // gradient words per row (Dim, or d′ for subspace)
	domain []uint64
	index  map[uint64]int
	coords [][]int // per-domain-row selected coordinates (subspace only)
}

// NewPlan validates the round geometry and the upload-union domain.
// union is ignored for CodecPlaintext (each client uploads its own
// rows) and CodecMasked (the domain is the full table); for the sparse
// codecs it must be the strictly-ascending union of the ROSTER's row
// sets — including eventual dropouts', since masks span the domain.
func NewPlan(p Params, union []uint64) (*Plan, error) {
	if p.Codec == CodecLegacy {
		return nil, fmt.Errorf("wire: legacy path has no plan")
	}
	if codecByte(p.Codec) == 0 {
		return nil, fmt.Errorf("wire: unknown codec %q", p.Codec)
	}
	if p.NumRows == 0 || p.Dim <= 0 {
		return nil, fmt.Errorf("wire: invalid geometry %d rows × dim %d", p.NumRows, p.Dim)
	}
	if p.Roster < 1 {
		return nil, fmt.Errorf("wire: roster %d < 1", p.Roster)
	}
	pl := &Plan{p: p, k: p.EffectiveSubspaceDim()}
	switch p.Codec {
	case CodecPlaintext, CodecMasked:
		// No shared explicit domain.
	default:
		pl.domain = append([]uint64(nil), union...)
		pl.index = make(map[uint64]int, len(pl.domain))
		for t, r := range pl.domain {
			if r >= p.NumRows {
				return nil, fmt.Errorf("wire: union row %d outside table of %d", r, p.NumRows)
			}
			if t > 0 && r <= pl.domain[t-1] {
				return nil, fmt.Errorf("wire: union not strictly ascending at %d", r)
			}
			pl.index[r] = t
		}
		if p.Codec == CodecSubspace {
			pl.coords = make([][]int, len(pl.domain))
			for t, r := range pl.domain {
				pl.coords[t] = SubspaceCoords(p.Round, r, p.Dim, pl.k)
			}
		}
	}
	return pl, nil
}

// Params returns the plan's round parameters.
func (pl *Plan) Params() Params { return pl.p }

// EncodeScratch is one encoder's reusable scratch: the fixed-point word
// vector and the mask keystream buffer. Whoever encodes many payloads
// (a trainer's pool worker, one client after another) keeps one and
// passes it to every AppendEncode; nothing in it outlives a call. The
// zero value is ready. Not safe for concurrent use.
type EncodeScratch struct {
	words  []uint32
	stream secagg.StreamBuf
}

// Encode produces client clientIndex's upload payload in a new buffer:
// AppendEncode with fresh scratch.
func (pl *Plan) Encode(clientIndex int, rows []uint64, deltas [][]float32, samples int) ([]byte, int, error) {
	return pl.AppendEncode(nil, new(EncodeScratch), clientIndex, rows, deltas, samples)
}

// AppendEncode appends client clientIndex's upload payload to dst
// through sc and returns the extended buffer; on error dst comes back
// unextended. rows must be strictly ascending with one Dim-length delta
// each; samples is the client's training-sample count n_c (the FedAvg
// weight). Every codec pre-weights: count word = Encode(n_c), gradient
// words = Encode(n_c·Δθ_j) — so the server-side word sums are the exact
// FedAvg numerator and denominator. Also returns the number of saturated
// (clipped) fixed-point encodings. Once sc and dst have grown to a
// round's size, a masked encode allocates only each partner's cipher.
func (pl *Plan) AppendEncode(dst []byte, sc *EncodeScratch, clientIndex int, rows []uint64, deltas [][]float32, samples int) ([]byte, int, error) {
	p := pl.p
	if clientIndex < 0 || clientIndex >= p.Roster {
		return dst, 0, fmt.Errorf("wire: client %d outside roster %d", clientIndex, p.Roster)
	}
	if len(rows) != len(deltas) {
		return dst, 0, fmt.Errorf("wire: %d rows but %d deltas", len(rows), len(deltas))
	}
	if samples < 0 {
		return dst, 0, fmt.Errorf("wire: negative sample count %d", samples)
	}
	for i, r := range rows {
		if r >= p.NumRows {
			return dst, 0, fmt.Errorf("wire: row %d outside table of %d", r, p.NumRows)
		}
		if i > 0 && r <= rows[i-1] {
			return dst, 0, fmt.Errorf("wire: rows not strictly ascending at %d", r)
		}
		if len(deltas[i]) != p.Dim {
			return dst, 0, fmt.Errorf("wire: delta %d has dim %d, want %d", i, len(deltas[i]), p.Dim)
		}
	}

	// The payload's explicit domain (plaintext: the client's own rows).
	domain := pl.domain
	if p.Codec == CodecPlaintext {
		domain = rows
	}
	stride := pl.k + 1
	nRows := len(domain)
	if p.Codec == CodecMasked {
		if p.NumRows > 1<<24 {
			return dst, 0, fmt.Errorf("wire: masked full-table codec refuses %d rows (use masked-sparse)", p.NumRows)
		}
		nRows = int(p.NumRows)
	}

	// Build the fixed-point word vector over the domain layout, in the
	// scratch's zeroed words.
	words := slices.Grow(sc.words[:0], nRows*stride)[:nRows*stride]
	sc.words = words
	clear(words)
	sats := 0
	for i, r := range rows {
		t := i // plaintext: the client's own rows are the domain
		switch p.Codec {
		case CodecMasked:
			t = int(r)
		case CodecMaskedSparse, CodecSubspace:
			var ok bool
			if t, ok = pl.index[r]; !ok {
				return dst, 0, fmt.Errorf("wire: row %d not in the round's union domain", r)
			}
		}
		row := words[t*stride : (t+1)*stride]
		row[0] = secagg.EncodeCounting(float32(samples), &sats)
		if p.Codec == CodecSubspace {
			for j, c := range pl.coordsFor(t, r) {
				row[1+j] = secagg.EncodeCounting(float32(samples)*deltas[i][c], &sats)
			}
			continue
		}
		for j, d := range deltas[i] {
			row[1+j] = secagg.EncodeCounting(float32(samples)*d, &sats)
		}
	}
	if p.Codec.Masked() {
		sc.stream.AddPairwiseMasks(words, p.SessionKey, clientIndex, p.Roster)
	}

	// Assemble.
	out := slices.Grow(dst, 64+len(domain)*3+len(words)*4)
	out = append(out, magic[:]...)
	out = append(out, codecByte(p.Codec))
	out = putUvarint(out, p.Round)
	out = putUvarint(out, uint64(p.Roster))
	out = putUvarint(out, uint64(clientIndex))
	out = putUvarint(out, p.NumRows)
	out = putUvarint(out, uint64(p.Dim))
	out = putUvarint(out, uint64(pl.k))
	out = putUvarint(out, uint64(sats))
	if p.Codec != CodecMasked {
		out = putUvarint(out, uint64(len(domain)))
		prev := uint64(0)
		for i, r := range domain {
			if i == 0 {
				out = putUvarint(out, r)
			} else {
				out = putUvarint(out, r-prev)
			}
			prev = r
		}
	}
	if p.Codec == CodecPlaintext {
		for _, w := range words {
			out = putZigzag(out, int32(w))
		}
	} else {
		for _, w := range words {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
	}
	return out, sats, nil
}

func (pl *Plan) coordsFor(t int, row uint64) []int {
	if pl.coords != nil {
		return pl.coords[t]
	}
	return SubspaceCoords(pl.p.Round, row, pl.p.Dim, pl.k)
}

// Reveal is one orphaned pair seed disclosed in the unmasking round:
// survivor's shared seed with a dropout. The server subtracts the
// orphaned mask it reconstructs from the seed — it still never sees an
// individual update, only the survivors' sum.
type Reveal struct {
	Survivor int
	Dropout  int
	Seed     [32]byte
}

// Reveals builds the unmasking disclosures for the given survivor and
// dropout index sets (client side: requires the session key). Masked
// codecs need exactly survivors × dropouts reveals; plaintext needs
// none and returns nil.
func (pl *Plan) Reveals(survivors, dropouts []int) []Reveal {
	if !pl.p.Codec.Masked() || len(dropouts) == 0 {
		return nil
	}
	out := make([]Reveal, 0, len(survivors)*len(dropouts))
	for _, s := range survivors {
		for _, d := range dropouts {
			out = append(out, Reveal{Survivor: s, Dropout: d, Seed: secagg.PairSeed(pl.p.SessionKey, s, d)})
		}
	}
	return out
}
