// Package secagg implements pairwise-masking secure aggregation
// (Bonawitz et al., CCS'17 — reference [8] of the FEDORA paper), the
// standard FL companion mechanism that hides individual client updates
// from the server and reveals only their sum. FEDORA is explicitly
// compatible with SecAgg (Sec 2.2): the dense-model deltas (and, with
// the buffer ORAM handling row alignment, embedding gradients) can be
// uploaded masked.
//
// Protocol (honest-but-curious server, the paper's threat model):
//
//  1. Every pair of participating clients (i, j) agrees on a shared seed
//     s_ij (here: derived from pre-provisioned pairwise keys; a real
//     deployment runs Diffie-Hellman through the server).
//  2. Client i uploads y_i = x_i + Σ_{j>i} PRG(s_ij) − Σ_{j<i} PRG(s_ij)
//     (mod 2³², fixed-point encoded). Each mask appears once positively
//     and once negatively, so Σ y_i = Σ x_i while every individual y_i
//     is uniformly random to the server. PRG is AES-256-CTR keyed by
//     s_ij with a zero IV, read as little-endian words (AddKeystream):
//     session keys are per round, so a pair seed keys exactly one
//     stream and the fixed IV never repeats under a key.
//  3. If a client drops out after masks were committed, the survivors
//     reveal their shared seeds with the dropout so the server can
//     subtract the orphaned masks (the "unmasking" round).
//
// Arithmetic is exact in uint32 fixed point so masking is perfectly
// invertible; the fixed-point scale bounds the value range.
package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Scale is the fixed-point resolution: values are encoded as
// round(x · Scale) in two's-complement uint32 arithmetic.
const Scale = 1 << 16

// MaxAbs is the largest representable magnitude.
const MaxAbs = float64(math.MaxInt32) / Scale

// ErrOutOfRange reports a value whose fixed-point encoding saturated.
// Saturation breaks the exact-sum invariant silently (the sum of
// saturated encodings is not the encoding of the sum), so callers that
// care use EncodeChecked or EncodeCounting and surface the counter —
// a non-zero count means the fixed-point Scale is misconfigured for the
// gradient magnitudes in play.
var ErrOutOfRange = errors.New("secagg: value exceeds fixed-point range")

// Encode converts a float to fixed point (saturating).
func Encode(x float32) uint32 {
	v, _ := encode(x)
	return v
}

// EncodeChecked converts a float to fixed point, returning ErrOutOfRange
// instead of silently clipping when the value saturates.
func EncodeChecked(x float32) (uint32, error) {
	v, sat := encode(x)
	if sat {
		return v, fmt.Errorf("%w: |%g| > %g", ErrOutOfRange, x, MaxAbs)
	}
	return v, nil
}

// EncodeCounting converts a float to fixed point, incrementing *sats
// when the value saturated. The encoding still clips (so aggregation
// proceeds); the counter makes the clipping observable.
func EncodeCounting(x float32, sats *int) uint32 {
	v, sat := encode(x)
	if sat {
		*sats++
	}
	return v
}

func encode(x float32) (uint32, bool) {
	v := float64(x) * Scale
	if v > math.MaxInt32 {
		return 0x7FFFFFFF, true
	}
	if v < math.MinInt32 {
		return 0x80000000, true
	}
	return uint32(int32(v)), false
}

// Decode converts fixed point back to float.
func Decode(v uint32) float32 {
	return float32(int32(v)) / Scale
}

// PairSeed derives the shared seed for the (i, j) client pair from a
// session key. Symmetric in (i, j). Exported for the wire upload plane
// (internal/wire), which reveals exactly these seeds in the dropout-
// unmasking round.
func PairSeed(sessionKey [32]byte, i, j int) [32]byte {
	if i > j {
		i, j = j, i
	}
	var buf [48]byte
	copy(buf[:32], sessionKey[:])
	binary.LittleEndian.PutUint64(buf[32:40], uint64(i))
	binary.LittleEndian.PutUint64(buf[40:48], uint64(j))
	return sha256.Sum256(buf[:])
}

// streamWords is the keystream chunk: masks are generated 16 KiB at a
// time into one scratch buffer and folded into the caller's words, so
// no allocation scales with the vector being masked.
const streamWords = 4096

// AddKeystream adds the mask stream of seed into words in place
// (subtracts it when subtract is set), modulo 2³² per word. The stream
// is AES-256-CTR keyed by the 32-byte seed with an all-zero IV, read as
// little-endian uint32 words — exactly cipher.NewCTR(aes.NewCipher(seed),
// zeroIV) over zeros, so a second implementation can interoperate. The
// stream for n words is a prefix of the stream for m > n words.
//
// The zero IV is sound because a seed keys exactly ONE stream: pair
// seeds are derived from a per-round session key (PairSeed), each
// (round, pair) masks one vector, and the two members of the pair use
// the same stream with opposite signs so it cancels in the sum. Reusing
// a seed for a second vector would leak the difference of the two
// plaintexts — callers must derive a fresh session key per aggregation.
//
// This is the single mask primitive: the Session, the wire upload
// plane's masked codecs and its public subspace selection all draw from
// it.
func AddKeystream(words []uint32, seed [32]byte, subtract bool) {
	addKeystream(words, seed, subtract, newStreamBuf(len(words)))
}

// newStreamBuf sizes the scratch buffer for masking n words: the fixed
// chunk, or less for a short vector.
func newStreamBuf(n int) []byte { return make([]byte, 4*min(n, streamWords)) }

// addKeystream is AddKeystream through a caller-owned scratch buffer, so
// one buffer serves every partner of a client (or every orphaned pair
// of an unmasking).
func addKeystream(words []uint32, seed [32]byte, subtract bool, buf []byte) {
	if len(words) == 0 {
		return
	}
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err) // unreachable: a 32-byte key is always valid
	}
	var iv [aes.BlockSize]byte
	stream := cipher.NewCTR(block, iv[:])
	for len(words) > 0 {
		n := min(len(words), len(buf)/4)
		ks := buf[:4*n]
		clear(ks)
		stream.XORKeyStream(ks, ks)
		chunk := words[:n]
		if subtract {
			for w := range chunk {
				chunk[w] -= binary.LittleEndian.Uint32(ks[4*w:])
			}
		} else {
			for w := range chunk {
				chunk[w] += binary.LittleEndian.Uint32(ks[4*w:])
			}
		}
		words = words[n:]
	}
}

// AddPairwiseMasks folds client i's pairwise masks into words in place:
// +stream(s_ij) for every roster partner j > i, −stream(s_ij) for j < i.
// Over a full roster the masks cancel word-for-word; this is exactly
// what Session.Mask applies, factored out so the wire plane can mask
// word vectors with its own layout. The masks depend only on client i's
// own pair seeds — what a real device can compute.
func AddPairwiseMasks(words []uint32, sessionKey [32]byte, i, roster int) {
	buf := newStreamBuf(len(words))
	for j := 0; j < roster; j++ {
		if j != i {
			addKeystream(words, PairSeed(sessionKey, i, j), j < i, buf)
		}
	}
}

// SubtractOrphanMask removes the orphaned (survivor, dropout) pair mask
// from an aggregated word sum, given the revealed pair seed: survivor
// added +mask if dropout > survivor, −mask otherwise, so the correction
// applies the opposite sign.
func SubtractOrphanMask(sum []uint32, pairSeed [32]byte, survivor, dropout int) {
	AddKeystream(sum, pairSeed, dropout > survivor)
}

// Session is one aggregation round among a fixed roster of clients.
type Session struct {
	sessionKey [32]byte
	n          int
	length     int
}

// NewSession creates a session for n clients aggregating vectors of the
// given length. The session key models the key agreement transcript.
func NewSession(sessionKey [32]byte, n, length int) (*Session, error) {
	if n < 2 {
		return nil, errors.New("secagg: need at least 2 clients")
	}
	if length <= 0 {
		return nil, errors.New("secagg: vector length must be positive")
	}
	return &Session{sessionKey: sessionKey, n: n, length: length}, nil
}

// Mask produces client i's upload: the fixed-point encoding of x plus
// the pairwise masks. len(x) must equal the session length.
func (s *Session) Mask(i int, x []float32) ([]uint32, error) {
	out, _, err := s.MaskCounting(i, x)
	return out, err
}

// MaskCounting is Mask with saturation accounting: it additionally
// reports how many coordinates of x exceeded the fixed-point range and
// were clipped. A non-zero count means the aggregate is silently wrong
// at the clipped coordinates — surface it (see ErrOutOfRange).
func (s *Session) MaskCounting(i int, x []float32) ([]uint32, int, error) {
	if i < 0 || i >= s.n {
		return nil, 0, fmt.Errorf("secagg: client %d out of roster %d", i, s.n)
	}
	if len(x) != s.length {
		return nil, 0, fmt.Errorf("secagg: vector length %d != %d", len(x), s.length)
	}
	out := make([]uint32, s.length)
	sats := 0
	for w, xi := range x {
		out[w] = EncodeCounting(xi, &sats)
	}
	AddPairwiseMasks(out, s.sessionKey, i, s.n)
	return out, sats, nil
}

// Aggregate sums the uploads of the surviving clients and unmasks the
// orphaned pair masks of dropouts. uploads maps client index → masked
// vector; dropouts lists roster members that never uploaded (their seeds
// with every survivor are revealed and subtracted).
func (s *Session) Aggregate(uploads map[int][]uint32, dropouts []int) ([]float32, error) {
	if len(uploads) == 0 {
		return nil, errors.New("secagg: no uploads")
	}
	dropped := map[int]bool{}
	for _, d := range dropouts {
		if d < 0 || d >= s.n {
			return nil, fmt.Errorf("secagg: dropout %d out of roster", d)
		}
		dropped[d] = true
	}
	sum := make([]uint32, s.length)
	for i, up := range uploads {
		if i < 0 || i >= s.n {
			return nil, fmt.Errorf("secagg: upload from unknown client %d", i)
		}
		if dropped[i] {
			return nil, fmt.Errorf("secagg: client %d both uploaded and dropped", i)
		}
		if len(up) != s.length {
			return nil, fmt.Errorf("secagg: upload length %d != %d", len(up), s.length)
		}
		for w := range sum {
			sum[w] += up[w]
		}
	}
	// Remove masks that never found their partner: each survivor i holds
	// a mask with every dropout d. If d > i the survivor added +mask; if
	// d < i the survivor added −mask. Subtract accordingly.
	buf := newStreamBuf(s.length)
	for i := range uploads {
		for d := range dropped {
			addKeystream(sum, PairSeed(s.sessionKey, i, d), d > i, buf)
		}
	}
	out := make([]float32, s.length)
	for w := range sum {
		out[w] = Decode(sum[w])
	}
	return out, nil
}
