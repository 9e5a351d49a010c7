// Package wire is the gradient *upload plane*: the codec seam between
// the FL trainer's per-client embedding updates and the serving surface
// (HTTP or in-process). It composes FEDORA with the two wire-side
// techniques the paper's threat model assumes live next to it
// (Sec 2.2): secure aggregation of the uploads, and upload compression.
//
// Four codecs share one exact-sum contract:
//
//	plaintext     — SecEmb-style sparse encoding: each client uploads
//	                only its own (row id, non-zero delta) pairs, row ids
//	                delta+varint coded, words zigzag-varint coded. The
//	                server sees every client's individual update (like
//	                the legacy float path) but pays the fewest bytes.
//	masked        — pairwise-mask secure aggregation (Bonawitz et al.,
//	                CCS'17) over the FULL table: every roster member
//	                uploads NumRows·(Dim+1) uniformly-random-looking
//	                words. The server learns only the sum — not even
//	                which rows a client touched. The fat baseline.
//	masked-sparse — masking restricted to the round's public upload
//	                union D: payloads shrink from NumRows to |D| rows.
//	                The server additionally learns D (strictly less
//	                than plaintext's per-client row sets).
//	subspace      — FAIR-style random-subspace aggregation on top of
//	                masked-sparse: per (round, row), a public seeded
//	                selection keeps d′ of Dim coordinates; clients
//	                upload (and the server accumulates) only those.
//	                The sum is exact *in the subspace*; non-selected
//	                coordinates simply do not update that round.
//
// Exactness contract: every codec quantizes the same per-client values
// (count word = Encode(n_c), gradient words = Encode(n_c·Δθ), via
// internal/secagg fixed point) and the server reconstructs the same
// uint32 modular word sums, applied once per row in ascending row
// order. plaintext, masked and masked-sparse therefore produce
// BIT-IDENTICAL models at equal Scale; subspace is exact within its
// selected coordinates. Masking is perfectly invertible (exact uint32
// arithmetic), so turning it on can never change the model.
//
// Mask stream: the masked codecs add, per roster partner, the one
// internal/secagg keystream — AES-256-CTR keyed by the 32-byte pair seed,
// zero IV, little-endian words — over the whole word vector. The zero IV
// is sound because the session key is per round (DeriveSessionKey), so
// each pair seed keys exactly one stream, used once with each sign. The
// public subspace selection draws from the same primitive under its own
// label. Payloads carry the version tag "FWR2"; "FWR1" (the retired
// SHA-256 counter stream) is refused by name, since its words could
// never cancel against FWR2 masks.
//
// Dropout protocol: the roster is the set of clients that reached mask
// commitment (downloaded their rows). A roster member that never
// uploads is a dropout; the survivors (here: the trainer, which holds
// the session key) reveal the orphaned pair seeds and the server
// subtracts the orphaned masks — the reconstructed sum equals the
// survivors-only plaintext sum.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/secagg"
)

// Codec names an upload-plane encoding. The empty string is the float
// gradient path (api row frames, no plane).
type Codec string

const (
	// CodecLegacy is the pre-plane float path (not a wire codec).
	CodecLegacy Codec = ""
	// CodecPlaintext is the sparse fixed-point encoding, unmasked.
	CodecPlaintext Codec = "plaintext"
	// CodecMasked is full-table pairwise-mask secure aggregation.
	CodecMasked Codec = "masked"
	// CodecMaskedSparse is masking over the round's upload union.
	CodecMaskedSparse Codec = "masked-sparse"
	// CodecSubspace is masked-sparse plus seeded coordinate subsampling.
	CodecSubspace Codec = "subspace"
)

// wireCodecs is the one codec table: a codec's payload header byte is
// its index here plus one.
var wireCodecs = [...]Codec{CodecPlaintext, CodecMasked, CodecMaskedSparse, CodecSubspace}

// Codecs lists every wire codec (excluding the legacy path).
func Codecs() []Codec { return append([]Codec(nil), wireCodecs[:]...) }

// ParseCodec validates a codec name from a flag or config ("" = legacy).
func ParseCodec(s string) (Codec, error) {
	switch Codec(s) {
	case CodecLegacy, CodecPlaintext, CodecMasked, CodecMaskedSparse, CodecSubspace:
		return Codec(s), nil
	case "legacy":
		return CodecLegacy, nil
	}
	return "", fmt.Errorf("wire: unknown upload codec %q (want legacy, plaintext, masked, masked-sparse or subspace)", s)
}

// Masked reports whether the codec applies pairwise masks.
func (c Codec) Masked() bool {
	return c == CodecMasked || c == CodecMaskedSparse || c == CodecSubspace
}

// codecByte returns the codec's payload header byte (0 = not a wire
// codec).
func codecByte(c Codec) byte {
	for i, wc := range wireCodecs {
		if wc == c {
			return byte(i + 1)
		}
	}
	return 0
}

func codecOf(b byte) (Codec, error) {
	if b < 1 || int(b) > len(wireCodecs) {
		return "", fmt.Errorf("wire: unknown codec byte %d", b)
	}
	return wireCodecs[b-1], nil
}

// PayloadCodec peeks a payload's codec from its header without parsing
// the rest — a server enforcing an upload-codec policy rejects a
// mismatched payload before absorbing it into the aggregator.
func PayloadCodec(payload []byte) (Codec, error) {
	if err := checkMagic(payload); err != nil {
		return "", err
	}
	return codecOf(payload[len(magic)])
}

// checkMagic validates the payload's version tag and that a codec byte
// follows it. The previous version is named in its own error: an FWR1
// sender masks with a different keystream, so its words can never be
// folded into an FWR2 sum.
func checkMagic(payload []byte) error {
	if len(payload) > len(magic) {
		switch string(payload[:len(magic)]) {
		case string(magic[:]):
			return nil
		case "FWR1":
			return fmt.Errorf("wire: payload version FWR1 is no longer accepted (want %s: masks are AES-256-CTR)", magic[:])
		}
	}
	return fmt.Errorf("wire: bad payload magic")
}

// Params fixes one round's upload-plane geometry. Everything here is
// public protocol state shared by all roster members and the server —
// except SessionKey, which only the clients (in our deployment: the
// trainer process) hold; the server-side Aggregator leaves it zero.
type Params struct {
	Codec   Codec
	NumRows uint64
	Dim     int
	// SubspaceDim is d′ for CodecSubspace (0 = Dim/4, minimum 1).
	SubspaceDim int
	// Round is the controller round number; it seeds the per-row
	// subspace selection and scopes payloads to one aggregation.
	Round uint64
	// Roster is the number of clients that committed to the round.
	Roster int
	// SessionKey derives the pairwise mask seeds (client side only).
	SessionKey [32]byte
}

// EffectiveSubspaceDim resolves d′: SubspaceDim clamped to [1, Dim],
// defaulting to Dim/4 (min 1). Non-subspace codecs use the full Dim.
func (p Params) EffectiveSubspaceDim() int {
	if p.Codec != CodecSubspace {
		return p.Dim
	}
	d := p.SubspaceDim
	if d <= 0 {
		d = p.Dim / 4
	}
	if d < 1 {
		d = 1
	}
	if d > p.Dim {
		d = p.Dim
	}
	return d
}

// DeriveSessionKey derives the per-round mask session key from the
// run's seed and the controller round number — the stand-in for the
// key-agreement transcript a production deployment would run.
func DeriveSessionKey(seed int64, round uint64) [32]byte {
	var buf [34]byte
	copy(buf[:18], "fedora-wire-sess-v")
	binary.LittleEndian.PutUint64(buf[18:26], uint64(seed))
	binary.LittleEndian.PutUint64(buf[26:34], round)
	return sha256.Sum256(buf[:])
}

// SubspaceCoords returns the d′ coordinates (ascending) the subspace
// codec keeps for a row this round. The selection is a public function
// of (round, row) — both the clients and the server derive it without
// the session key, at any worker or shard count, so the sum stays
// exact in the selected subspace.
func SubspaceCoords(round, row uint64, dim, subDim int) []int {
	if subDim >= dim {
		out := make([]int, dim)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var buf [35]byte
	copy(buf[:19], "fedora-wire-proj-v1")
	binary.LittleEndian.PutUint64(buf[19:27], round)
	binary.LittleEndian.PutUint64(buf[27:35], row)
	stream := make([]uint32, subDim)
	secagg.AddKeystream(stream, sha256.Sum256(buf[:]), false)
	idx := make([]int, dim)
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher-Yates: the first subDim positions become the pick.
	for i := 0; i < subDim; i++ {
		j := i + int(stream[i]%uint32(dim-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	sel := append([]int(nil), idx[:subDim]...)
	sort.Ints(sel)
	return sel
}

// ---- varint helpers --------------------------------------------------

func putUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func putZigzag(b []byte, v int32) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], int64(v))
	return append(b, tmp[:n]...)
}

// reader is a bounds-checked varint cursor over a payload.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("wire: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) zigzag() int32 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("wire: truncated varint at offset %d", r.off)
		return 0
	}
	if v > 0x7FFFFFFF || v < -0x80000000 {
		r.err = fmt.Errorf("wire: word %d out of int32 range at offset %d", v, r.off)
		return 0
	}
	r.off += n
	return int32(v)
}

func (r *reader) remaining() int { return len(r.b) - r.off }
