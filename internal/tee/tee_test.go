package tee

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testEngine() *Engine {
	var key [32]byte
	for i := range key {
		key[i] = byte(i * 7)
	}
	return NewEngine(key)
}

func TestSealOpenRoundTrip(t *testing.T) {
	e := testEngine()
	msg := []byte("embedding row payload 0123456789")
	sealed := e.Seal(msg, 42, 7)
	if len(sealed) != SealedSize(len(msg)) {
		t.Errorf("sealed length = %d, want %d", len(sealed), SealedSize(len(msg)))
	}
	got, err := e.Open(sealed, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("round trip mismatch: %q", got)
	}
}

func TestSealOpenPropertyRandom(t *testing.T) {
	e := testEngine()
	f := func(msg []byte, groupID, counter uint64) bool {
		sealed := e.Seal(msg, groupID, counter)
		got, err := e.Open(sealed, groupID, counter)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	e := testEngine()
	msg := bytes.Repeat([]byte{0xAB}, 64)
	sealed := e.Seal(msg, 1, 1)
	if bytes.Contains(sealed, msg[:16]) {
		t.Error("ciphertext contains plaintext prefix")
	}
}

func TestSameCounterSamePlaintextDeterministic(t *testing.T) {
	e := testEngine()
	a := e.Seal([]byte("x"), 3, 9)
	b := e.Seal([]byte("x"), 3, 9)
	if !bytes.Equal(a, b) {
		t.Error("seal is not deterministic for identical inputs")
	}
	c := e.Seal([]byte("x"), 3, 10)
	if bytes.Equal(a, c) {
		t.Error("counter change did not change ciphertext")
	}
}

func TestTamperDetection(t *testing.T) {
	e := testEngine()
	sealed := e.Seal([]byte("secret block"), 5, 1)
	for flip := 0; flip < len(sealed); flip += 3 {
		mut := append([]byte(nil), sealed...)
		mut[flip] ^= 0x01
		if _, err := e.Open(mut, 5, 1); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("bit flip at %d not detected", flip)
		}
	}
}

func TestReplayDetection(t *testing.T) {
	e := testEngine()
	old := e.Seal([]byte("version 1"), 8, 1)
	_ = e.Seal([]byte("version 2"), 8, 2)
	// Adversary replays the old ciphertext; controller opens with the
	// current counter (2) and must reject.
	if _, err := e.Open(old, 8, 2); !errors.Is(err, ErrAuthFailed) {
		t.Error("replay under stale counter not detected")
	}
}

func TestWrongGroupRejected(t *testing.T) {
	e := testEngine()
	sealed := e.Seal([]byte("block"), 10, 1)
	if _, err := e.Open(sealed, 11, 1); !errors.Is(err, ErrAuthFailed) {
		t.Error("relocation to another group not detected")
	}
}

func TestShortCiphertextRejected(t *testing.T) {
	e := testEngine()
	if _, err := e.Open(make([]byte, TagSize-1), 0, 0); !errors.Is(err, ErrAuthFailed) {
		t.Error("short ciphertext accepted")
	}
}

func TestEngineStats(t *testing.T) {
	e := testEngine()
	sealed := e.Seal(make([]byte, 100), 1, 1)
	if _, err := e.Open(sealed, 1, 1); err != nil {
		t.Fatal(err)
	}
	_, _ = e.Open(sealed, 1, 2) // auth failure
	st := e.Stats()
	if st.BytesSealed != 100 || st.BytesOpened != 100 ||
		st.GroupsSealed != 1 || st.GroupsOpened != 1 || st.AuthFailures != 1 {
		t.Errorf("stats = %+v", st)
	}
	e.ResetStats()
	if e.Stats() != (EngineStats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestDifferentKeysDifferentCiphertext(t *testing.T) {
	var k1, k2 [32]byte
	k2[0] = 1
	a := NewEngine(k1).Seal([]byte("msg"), 0, 0)
	b := NewEngine(k2).Seal([]byte("msg"), 0, 0)
	if bytes.Equal(a, b) {
		t.Error("different keys produced identical ciphertext")
	}
	if _, err := NewEngine(k2).Open(a, 0, 0); !errors.Is(err, ErrAuthFailed) {
		t.Error("cross-key open succeeded")
	}
}

func TestScratchpadReserve(t *testing.T) {
	sp := NewScratchpad(100)
	if err := sp.Reserve("key", 32); err != nil {
		t.Fatal(err)
	}
	if err := sp.Reserve("root-counter", 8); err != nil {
		t.Fatal(err)
	}
	if sp.Free() != 60 {
		t.Errorf("Free = %d, want 60", sp.Free())
	}
	if err := sp.Reserve("scratch", 61); !errors.Is(err, ErrScratchpadFull) {
		t.Errorf("over-reservation err = %v", err)
	}
	if err := sp.Reserve("key", 1); err == nil {
		t.Error("duplicate region name accepted")
	}
	sp.Release("key")
	if sp.Free() != 92 {
		t.Errorf("Free after release = %d", sp.Free())
	}
	if err := sp.Reserve("scratch", 92); err != nil {
		t.Errorf("reserve after release failed: %v", err)
	}
}

func TestScratchpadZeroSize(t *testing.T) {
	sp := NewScratchpad(0)
	if err := sp.Reserve("anything", 1); err == nil {
		t.Error("reservation on zero-size scratchpad succeeded")
	}
	if err := sp.Reserve("nothing", 0); err != nil {
		t.Errorf("zero-byte reservation failed: %v", err)
	}
}

func TestScratchpadNegativeReservation(t *testing.T) {
	sp := NewScratchpad(10)
	if err := sp.Reserve("bad", -5); err == nil {
		t.Error("negative reservation accepted")
	}
}

func TestDefaultScratchpadFitsPaperContents(t *testing.T) {
	// The paper stores the key, the root counter, and an eviction scratch
	// region in 4 KB (Sec 5.1).
	sp := NewScratchpad(DefaultScratchpadSize)
	if err := sp.Reserve("key", 32); err != nil {
		t.Fatal(err)
	}
	if err := sp.Reserve("root-counter", 8); err != nil {
		t.Fatal(err)
	}
	if err := sp.Reserve("eviction-scratch", sp.Free()); err != nil {
		t.Fatal(err)
	}
	if sp.Free() != 0 {
		t.Errorf("Free = %d", sp.Free())
	}
}

func TestGroupLayoutOverhead(t *testing.T) {
	l := NewGroupLayout(DefaultGroupSize, 2)
	// 2 child counters (16 B) + tag (16 B) over 512 B payload = 6.25%.
	if got := l.OverheadRatio(); got < 0.06 || got > 0.07 {
		t.Errorf("OverheadRatio = %v", got)
	}
	// Paper claims ~8× improvement over per-cache-line counters.
	improvement := PerCacheLineOverheadRatio() / l.OverheadRatio()
	if improvement < 5 || improvement > 9 {
		t.Errorf("improvement over per-line = %.1f×, expected ~6-8×", improvement)
	}
}

func TestParentChildCounterChain(t *testing.T) {
	// Integration-style check of the Sec 5.2 scheme: the child counter is
	// stored inside the parent group; corrupting the stored child counter
	// makes the parent fail verification, and replaying an old child under
	// the (authentic) current counter fails on the child.
	e := testEngine()
	childCtr := uint64(1)
	child := e.Seal([]byte("child-payload"), 2, childCtr)
	parentPlain := append([]byte("parent-payload"), byte(childCtr)) // counter embedded
	parent := e.Seal(parentPlain, 1, 1)

	// Normal chain decrypts fine.
	pp, err := e.Open(parent, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotCtr := uint64(pp[len(pp)-1])
	if _, err := e.Open(child, 2, gotCtr); err != nil {
		t.Fatal(err)
	}

	// Adversary rolls the child back after an update.
	childCtr = 2
	_ = e.Seal([]byte("child-payload-v2"), 2, childCtr)
	parentPlain[len(parentPlain)-1] = byte(childCtr)
	parent = e.Seal(parentPlain, 1, 2)
	pp, err = e.Open(parent, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotCtr = uint64(pp[len(pp)-1])
	if _, err := e.Open(child /* stale v1 */, 2, gotCtr); !errors.Is(err, ErrAuthFailed) {
		t.Error("stale child accepted under fresh parent counter")
	}
}

func BenchmarkSeal4K(b *testing.B) {
	e := testEngine()
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Seal(buf, uint64(i), uint64(i))
	}
}

func BenchmarkOpen4K(b *testing.B) {
	e := testEngine()
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(buf)
	sealed := e.Seal(buf, 1, 2)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Open(sealed, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealTo4K / BenchmarkOpenTo4K: one 4 KB group the way the
// ORAMs seal and open a bucket — into a buffer they keep.
func BenchmarkSealTo4K(b *testing.B) {
	e := testEngine()
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(buf)
	dst := make([]byte, 0, SealedSize(len(buf)))
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SealTo(dst, buf, uint64(i), uint64(i))
	}
}

func BenchmarkOpenTo4K(b *testing.B) {
	e := testEngine()
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(buf)
	sealed := e.Seal(buf, 1, 2)
	dst := make([]byte, 0, len(buf))
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.OpenTo(dst, sealed, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSealToOpenToAllocs: with capacity in dst, sealing or opening a 4 KB
// group allocates nothing but the cipher.NewCTR stream — no output
// slice, no per-call HMAC state.
func TestSealToOpenToAllocs(t *testing.T) {
	e := testEngine()
	plain := make([]byte, 4096-TagSize)
	sealed := e.Seal(plain, 3, 9)
	dst := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { e.SealTo(dst, plain, 3, 9) }); n > 2 {
		t.Errorf("SealTo allocates %.0f times per call, want <= 2", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := e.OpenTo(dst, sealed, 3, 9); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("OpenTo allocates %.0f times per call, want <= 2", n)
	}
}

// TestSealToAppends: SealTo/OpenTo extend dst and leave what it held.
func TestSealToAppends(t *testing.T) {
	e := testEngine()
	sealed := e.SealTo([]byte("hdr"), []byte("payload"), 1, 2)
	if string(sealed[:3]) != "hdr" || !bytes.Equal(sealed[3:], e.Seal([]byte("payload"), 1, 2)) {
		t.Fatalf("SealTo = %x", sealed)
	}
	plain, err := e.OpenTo([]byte("hdr"), sealed[3:], 1, 2)
	if err != nil || string(plain) != "hdrpayload" {
		t.Fatalf("OpenTo = %q, %v", plain, err)
	}
}
