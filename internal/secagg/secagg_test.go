package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// keystream returns the first n mask words of seed.
func keystream(seed [32]byte, n int) []uint32 {
	out := make([]uint32, n)
	AddKeystream(out, seed, false)
	return out
}

func testSession(t *testing.T, n, length int) *Session {
	t.Helper()
	var key [32]byte
	key[0] = 0x5e
	s, err := NewSession(key, n, length)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.Abs(float64(x)) > MaxAbs {
			return true // out of fixed-point range
		}
		got := Decode(Encode(x))
		return math.Abs(float64(got-x)) <= 1.0/Scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Negative values survive.
	if got := Decode(Encode(-1.5)); math.Abs(float64(got)+1.5) > 1e-4 {
		t.Errorf("Decode(Encode(-1.5)) = %v", got)
	}
}

func TestEncodeSaturates(t *testing.T) {
	if Decode(Encode(1e9)) < float32(MaxAbs)-1 {
		t.Error("positive saturation broken")
	}
	if Decode(Encode(-1e9)) > -float32(MaxAbs)+1 {
		t.Error("negative saturation broken")
	}
}

func TestSumRecoveredExactly(t *testing.T) {
	const n, length = 5, 64
	s := testSession(t, n, length)
	rng := rand.New(rand.NewSource(1))
	want := make([]float64, length)
	uploads := map[int][]uint32{}
	for i := 0; i < n; i++ {
		x := make([]float32, length)
		for w := range x {
			x[w] = float32(rng.NormFloat64())
			want[w] += float64(x[w])
		}
		up, err := s.Mask(i, x)
		if err != nil {
			t.Fatal(err)
		}
		uploads[i] = up
	}
	got, err := s.Aggregate(uploads, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := range got {
		if math.Abs(float64(got[w])-want[w]) > float64(n)/Scale+1e-6 {
			t.Fatalf("dim %d: got %v want %v", w, got[w], want[w])
		}
	}
}

func TestIndividualUploadLooksRandom(t *testing.T) {
	// A masked upload must not resemble the plaintext: with all-zero
	// input the upload words should be spread over the uint32 range.
	s := testSession(t, 3, 256)
	up, err := s.Mask(0, make([]float32, 256))
	if err != nil {
		t.Fatal(err)
	}
	small := 0
	for _, w := range up {
		if w < 1<<16 { // ~0.002% chance per word if uniform
			small++
		}
	}
	if small > 3 {
		t.Errorf("%d/256 mask words suspiciously small — masks missing?", small)
	}
}

func TestTwoClientMasksCancel(t *testing.T) {
	s := testSession(t, 2, 8)
	x0 := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	x1 := []float32{-1, -2, -3, -4, -5, -6, -7, -8}
	u0, _ := s.Mask(0, x0)
	u1, _ := s.Mask(1, x1)
	got, err := s.Aggregate(map[int][]uint32{0: u0, 1: u1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := range got {
		if math.Abs(float64(got[w])) > 1e-4 {
			t.Fatalf("dim %d: %v, want 0", w, got[w])
		}
	}
}

func TestDropoutUnmasking(t *testing.T) {
	const n, length = 4, 32
	s := testSession(t, n, length)
	rng := rand.New(rand.NewSource(2))
	want := make([]float64, length)
	uploads := map[int][]uint32{}
	for i := 0; i < n; i++ {
		x := make([]float32, length)
		for w := range x {
			x[w] = float32(rng.NormFloat64())
		}
		up, err := s.Mask(i, x)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			continue // client 2 drops out after masking
		}
		uploads[i] = up
		for w := range x {
			want[w] += float64(x[w])
		}
	}
	got, err := s.Aggregate(uploads, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	for w := range got {
		if math.Abs(float64(got[w])-want[w]) > float64(n)/Scale+1e-6 {
			t.Fatalf("dim %d: got %v want %v", w, got[w], want[w])
		}
	}
}

func TestMultipleDropouts(t *testing.T) {
	const n, length = 6, 16
	s := testSession(t, n, length)
	uploads := map[int][]uint32{}
	var want float64
	for i := 0; i < n; i++ {
		x := make([]float32, length)
		x[0] = float32(i)
		up, err := s.Mask(i, x)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 || i == 4 {
			continue
		}
		uploads[i] = up
		want += float64(i)
	}
	got, err := s.Aggregate(uploads, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got[0])-want) > 1e-3 {
		t.Errorf("got %v want %v", got[0], want)
	}
}

func TestValidation(t *testing.T) {
	var key [32]byte
	if _, err := NewSession(key, 1, 8); err == nil {
		t.Error("single-client session accepted")
	}
	if _, err := NewSession(key, 3, 0); err == nil {
		t.Error("zero-length session accepted")
	}
	s := testSession(t, 3, 8)
	if _, err := s.Mask(3, make([]float32, 8)); err == nil {
		t.Error("out-of-roster client accepted")
	}
	if _, err := s.Mask(0, make([]float32, 7)); err == nil {
		t.Error("wrong-length vector accepted")
	}
	if _, err := s.Aggregate(nil, nil); err == nil {
		t.Error("empty aggregation accepted")
	}
	u, _ := s.Mask(0, make([]float32, 8))
	if _, err := s.Aggregate(map[int][]uint32{0: u}, []int{0}); err == nil {
		t.Error("upload+dropout conflict accepted")
	}
	if _, err := s.Aggregate(map[int][]uint32{0: u}, []int{9}); err == nil {
		t.Error("out-of-roster dropout accepted")
	}
	if _, err := s.Aggregate(map[int][]uint32{0: u[:4]}, nil); err == nil {
		t.Error("short upload accepted")
	}
}

func TestPairSeedSymmetric(t *testing.T) {
	var key [32]byte
	if PairSeed(key, 2, 7) != PairSeed(key, 7, 2) {
		t.Error("pair seed not symmetric")
	}
	if PairSeed(key, 2, 7) == PairSeed(key, 2, 8) {
		t.Error("distinct pairs share a seed")
	}
}

func TestPRGDeterministicAndSpread(t *testing.T) {
	var seed [32]byte
	seed[5] = 1
	a := keystream(seed, 100)
	b := keystream(seed, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PRG not deterministic")
		}
	}
	// Rough uniformity: mean of 100 words near 2^31.
	var sum float64
	for _, w := range a {
		sum += float64(w)
	}
	mean := sum / 100
	center := float64(uint64(1) << 31)
	if mean < 0.8*center || mean > 1.2*center {
		t.Errorf("PRG mean %v far from 2^31", mean)
	}
}

// TestKeystreamKnownAnswer pins the mask stream to the standard
// construction — AES-256-CTR keyed by the seed, zero IV, little-endian
// words — both against crypto/cipher and as a constant, so a second
// implementation (a real client device) can interoperate.
func TestKeystreamKnownAnswer(t *testing.T) {
	var seed [32]byte
	for i := range seed {
		seed[i] = byte(i)
	}
	const n = 2*streamWords + 3 // crosses two chunk seams
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, 4*n)
	cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(ref, ref)
	got := keystream(seed, n)
	for w := range got {
		if want := binary.LittleEndian.Uint32(ref[4*w:]); got[w] != want {
			t.Fatalf("word %d: %08x, crypto/cipher CTR gives %08x", w, got[w], want)
		}
	}
	// The first two counter blocks under key 00 01 … 1f (the same bytes
	// `openssl enc -aes-256-ctr` with a zero IV produces over zeros): the
	// first eight stream words, little-endian.
	const pinned = "f29000b62a499fd0a9f39a6add2e7780" + "f05d76ae4ab99fe5a6f69b3148c2363d"
	var first [32]byte
	for w, v := range got[:8] {
		binary.LittleEndian.PutUint32(first[4*w:], v)
	}
	if h := hex.EncodeToString(first[:]); h != pinned {
		t.Errorf("keystream head %s, pinned %s", h, pinned)
	}
	// Subtracting the same stream restores the input exactly.
	words := []uint32{1, 2, 3, 0xFFFFFFFF}
	AddKeystream(words, seed, false)
	AddKeystream(words, seed, true)
	if words[0] != 1 || words[1] != 2 || words[2] != 3 || words[3] != 0xFFFFFFFF {
		t.Errorf("add then subtract = %v", words)
	}
}

// seamLengths are the vector lengths around the keystream chunk seams.
var seamLengths = []int{1, 7, streamWords - 1, streamWords, streamWords + 1, 3*streamWords + 5}

func TestKeystreamPrefixProperty(t *testing.T) {
	var seed [32]byte
	seed[0] = 9
	long := keystream(seed, seamLengths[len(seamLengths)-1])
	for _, n := range seamLengths {
		short := keystream(seed, n)
		for w := range short {
			if short[w] != long[w] {
				t.Fatalf("mask(%d) word %d = %08x, mask(%d) has %08x", n, w, short[w], len(long), long[w])
			}
		}
	}
}

// TestPairwiseMasksCancelAcrossSeams: over a full roster the masks sum
// to zero word for word, and with dropouts the survivors' sum is
// restored by SubtractOrphanMask from the revealed pair seeds — at every
// chunk-seam length and roster size.
func TestPairwiseMasksCancelAcrossSeams(t *testing.T) {
	var key [32]byte
	key[3] = 0x77
	for _, length := range seamLengths {
		for roster := 2; roster <= 8; roster++ {
			for _, dropouts := range [][]int{nil, {0}, {1, roster - 1}} {
				if len(dropouts) == 2 && roster < 4 {
					continue
				}
				t.Run(fmt.Sprintf("len%d/roster%d/drop%d", length, roster, len(dropouts)), func(t *testing.T) {
					dropped := map[int]bool{}
					for _, d := range dropouts {
						dropped[d] = true
					}
					sum := make([]uint32, length)
					want := make([]uint32, length)
					for i := 0; i < roster; i++ {
						if dropped[i] {
							continue
						}
						words := make([]uint32, length)
						for w := range words {
							words[w] = uint32(i*31 + w)
							want[w] += words[w]
						}
						AddPairwiseMasks(words, key, i, roster)
						for w := range sum {
							sum[w] += words[w]
						}
					}
					for i := 0; i < roster; i++ {
						for _, d := range dropouts {
							if !dropped[i] {
								SubtractOrphanMask(sum, PairSeed(key, i, d), i, d)
							}
						}
					}
					for w := range sum {
						if sum[w] != want[w] {
							t.Fatalf("word %d: %08x, want %08x", w, sum[w], want[w])
						}
					}
				})
			}
		}
	}
}

// TestMaskAllocationsDoNotScale: masking allocates a small fixed number
// of objects per pair (cipher state) plus one scratch buffer — the same
// count for a 1 K-word and a 64 K-word vector.
func TestMaskAllocationsDoNotScale(t *testing.T) {
	var key [32]byte
	const roster = 5
	allocs := func(n int) float64 {
		words := make([]uint32, n)
		return testing.AllocsPerRun(10, func() { AddPairwiseMasks(words, key, 2, roster) })
	}
	small, large := allocs(1<<10), allocs(64<<10)
	if small != large {
		t.Errorf("AddPairwiseMasks allocates %v objects at 1K words but %v at 64K", small, large)
	}
	if perPair := large / (roster - 1); perPair > 8 {
		t.Errorf("%v allocations per pair", perPair)
	}
}
