package persist

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// --- codec ---

func TestCodecRoundTrip(t *testing.T) {
	f := func(u8 uint8, b bool, u32 uint32, u64 uint64, i64 int64, f32 float32, f64 float64, bs []byte, s string, fs []float32, us []uint64) bool {
		var e Encoder
		e.U8(u8)
		e.Bool(b)
		e.U32(u32)
		e.U64(u64)
		e.I64(i64)
		e.F32(f32)
		e.F64(f64)
		e.Bytes(bs)
		e.String(s)
		e.F32s(fs)
		e.U64s(us)
		d := NewDecoder(e.Finish())
		ok := d.U8() == u8 && d.Bool() == b && d.U32() == u32 && d.U64() == u64 &&
			d.I64() == i64
		gf32, gf64 := d.F32(), d.F64()
		gbs, gs, gfs, gus := d.Bytes(), d.String(), d.F32s(), d.U64s()
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		// NaN-safe float comparison: compare the bit patterns we encoded.
		if !ok || !sameBitsF32(gf32, f32) || !sameBitsF64(gf64, f64) || gs != s {
			return false
		}
		if !bytes.Equal(gbs, bs) && !(len(gbs) == 0 && len(bs) == 0) {
			return false
		}
		if !f32sEqual(gfs, fs) || !u64sEqual(gus, us) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sameBitsF32(a, b float32) bool {
	var e1, e2 Encoder
	e1.F32(a)
	e2.F32(b)
	return bytes.Equal(e1.Finish(), e2.Finish())
}

func sameBitsF64(a, b float64) bool {
	var e1, e2 Encoder
	e1.F64(a)
	e2.F64(b)
	return bytes.Equal(e1.Finish(), e2.Finish())
}

func f32sEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBitsF32(a[i], b[i]) {
			return false
		}
	}
	return true
}

func u64sEqual(a, b []uint64) bool {
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

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.U64(42)
	e.Bytes([]byte("hello"))
	full := e.Finish()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.U64()
		d.Bytes()
		if d.Err() == nil {
			t.Fatalf("truncation at %d/%d went undetected", cut, len(full))
		}
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("truncation error not ErrCorrupt: %v", d.Err())
		}
	}
}

func TestDecoderBoundedAllocation(t *testing.T) {
	// A length prefix claiming 2^60 elements must fail cleanly, not
	// attempt the allocation.
	var e Encoder
	e.U64(1 << 60)
	d := NewDecoder(e.Finish())
	if got := d.Bytes(); got != nil || d.Err() == nil {
		t.Fatalf("oversized length accepted: %v bytes, err=%v", len(got), d.Err())
	}
}

// --- frames ---

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, Magic)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{"alpha": []byte("payload-a"), "beta": {}, "gamma": bytes.Repeat([]byte{7}, 3000)}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := fw.WriteFrame(name, frames[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	fr, err := NewFrameReader(bytes.NewReader(buf.Bytes()), Magic)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for {
		name, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got[name] = payload
	}
	if len(got) != len(frames) {
		t.Fatalf("got %d frames, want %d", len(got), len(frames))
	}
	for name, want := range frames {
		if !bytes.Equal(got[name], want) {
			t.Errorf("frame %q: got %d bytes, want %d", name, len(got[name]), len(want))
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	fw, _ := NewFrameWriter(&buf, Magic)
	if err := fw.WriteFrame("data", bytes.Repeat([]byte{3}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Flip each byte in turn: every corruption must surface as an error
	// (never a silent wrong read, never a panic).
	for i := range clean {
		mut := append([]byte(nil), clean...)
		mut[i] ^= 0xFF
		fr, err := NewFrameReader(bytes.NewReader(mut), Magic)
		if err != nil {
			continue // magic corrupted: fine
		}
		for {
			_, _, err = fr.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF && i >= len(Magic) {
			// A flip that still yields clean EOF would be a missed
			// corruption — except no such flip exists with CRC + trailer.
			t.Fatalf("byte flip at %d yielded a clean stream", i)
		}
	}
}

func TestFrameTruncationWithoutTrailer(t *testing.T) {
	var buf bytes.Buffer
	fw, _ := NewFrameWriter(&buf, Magic)
	fw.WriteFrame("data", []byte("abc"))
	// No Close(): stream has a valid frame but no trailer.
	fr, err := NewFrameReader(bytes.NewReader(buf.Bytes()), Magic)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.Next(); err != nil {
		t.Fatalf("first frame should read: %v", err)
	}
	if _, _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing trailer not detected: %v", err)
	}
}

// --- checkpoint container ---

func TestCheckpointRoundTrip(t *testing.T) {
	cp := NewCheckpoint()
	cp.Epoch = 7
	cp.Put("fl/trainer", []byte("trainer-state"))
	cp.Put("fedora/controller", bytes.Repeat([]byte{9}, 512))
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 {
		t.Fatalf("epoch %d, want 7", got.Epoch)
	}
	if !reflect.DeepEqual(got.Sections(), cp.Sections()) {
		t.Fatalf("sections %v, want %v", got.Sections(), cp.Sections())
	}
	for _, name := range cp.Sections() {
		want, _ := cp.Get(name)
		gotP, ok := got.Get(name)
		if !ok || !bytes.Equal(gotP, want) {
			t.Fatalf("section %q mismatch", name)
		}
	}
}

// --- manager ---

func TestManagerFallbackAcrossCorruptEpochs(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		cp := NewCheckpoint()
		cp.Put("s", []byte{byte(epoch)})
		if err := m.Save(epoch, cp); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy: latest wins.
	cp, skipped, err := m.LoadLatest()
	if err != nil || len(skipped) != 0 || cp.Epoch != 3 {
		t.Fatalf("healthy load: epoch=%v skipped=%v err=%v", cp, skipped, err)
	}

	// Corrupt the newest file: fallback to epoch 2, reporting the skip.
	path3 := m.CheckpointPath(3)
	raw, _ := os.ReadFile(path3)
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path3, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, skipped, err = m.LoadLatest()
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if cp.Epoch != 2 {
		t.Fatalf("fell back to epoch %d, want 2", cp.Epoch)
	}
	if len(skipped) != 1 || !errors.Is(skipped[0], ErrCorrupt) {
		t.Fatalf("skip not reported as corruption: %v", skipped)
	}

	// Truncate epoch 2 as well: epoch 1 remains.
	if err := os.Truncate(m.CheckpointPath(2), 10); err != nil {
		t.Fatal(err)
	}
	cp, skipped, err = m.LoadLatest()
	if err != nil || cp.Epoch != 1 || len(skipped) != 2 {
		t.Fatalf("double fallback: cp=%v skipped=%v err=%v", cp, skipped, err)
	}
}

func TestManagerNoCheckpoint(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestManagerPrune(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(1); epoch <= 5; epoch++ {
		cp := NewCheckpoint()
		cp.Put("s", nil)
		if err := m.Save(epoch, cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Prune(2); err != nil {
		t.Fatal(err)
	}
	epochs, err := m.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if !u64sEqual(epochs, []uint64{4, 5}) {
		t.Fatalf("after prune: %v", epochs)
	}
}

// TestEpochsIgnoreAtomicWriteLeftover: a crash inside WriteFileAtomic
// leaves its temp file ("checkpoint-00000003.fckpt.tmp123456") beside
// the checkpoints. It is not an epoch: it must not be listed, skipped
// as corrupt or counted by the pruning that follows the next save.
func TestEpochsIgnoreAtomicWriteLeftover(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cp := NewCheckpoint()
		cp.Put("s", []byte{byte(i)})
		if _, err := m.SaveNext(cp); err != nil {
			t.Fatal(err)
		}
	}
	leftover := m.CheckpointPath(3) + ".tmp123456"
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if epochs, err := m.Epochs(); err != nil || !u64sEqual(epochs, []uint64{1, 2, 3}) {
		t.Fatalf("Epochs with a leftover temp file = %v, %v; want [1 2 3]", epochs, err)
	}
	if cp, skipped, err := m.LoadLatest(); err != nil || len(skipped) != 0 || cp.Epoch != 3 {
		t.Fatalf("LoadLatest = %v, skipped %v, %v; want epoch 3, nothing skipped", cp, skipped, err)
	}
	if _, err := m.SaveNext(NewCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if epochs, err := m.Epochs(); err != nil || !u64sEqual(epochs, []uint64{2, 3, 4}) {
		t.Fatalf("Epochs after the next save = %v, %v; want [2 3 4]", epochs, err)
	}
}

// --- atomic write ---

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.WriteString("old")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.WriteString("new-content")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new-content" {
		t.Fatalf("content %q", got)
	}
}

func TestWriteFileAtomicFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.WriteString("precious")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFileAtomic(path, func(f *os.File) error {
		f.WriteString("partial garbage")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "precious" {
		t.Fatalf("old content destroyed: %q", got)
	}
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// --- WAL ---

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []RoundRecord{
		{Round: 1, Epoch: 0, Seed: 12345, ClientDigest: 0xDEAD},
		{Round: 2, Epoch: 0, Seed: -99, ClientDigest: 0xBEEF},
		{Round: 3, Epoch: 1, Seed: 7, ClientDigest: 42},
	}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: appends continue after existing records.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, RoundRecord{Round: 4, Epoch: 1, Seed: 8, ClientDigest: 43})
	if err := w2.Append(want[3]); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	got, torn, err := ReadWALFile(path)
	if err != nil || torn {
		t.Fatalf("read: torn=%v err=%v", torn, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records %+v, want %+v", got, want)
	}
}

func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.wal")
	w, _ := OpenWAL(path)
	for r := uint64(1); r <= 3; r++ {
		if err := w.Append(RoundRecord{Round: r, Seed: int64(r)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	clean, _ := os.ReadFile(path)

	// Every truncation point must keep all records whose frames survived
	// intact and flag the tail as torn (or read clean at exact record
	// boundaries).
	for cut := len(WALMagic); cut < len(clean); cut++ {
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := ReadWALFile(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		for i, rec := range recs {
			if rec.Round != uint64(i+1) {
				t.Fatalf("cut=%d: record %d has round %d", cut, i, rec.Round)
			}
		}
	}
	// And a missing file is an empty log.
	os.Remove(path)
	recs, torn, err := ReadWALFile(path)
	if err != nil || torn || len(recs) != 0 {
		t.Fatalf("missing file: recs=%v torn=%v err=%v", recs, torn, err)
	}
}

// --- RNG source ---

func TestSourceMatchesStdlib(t *testing.T) {
	// The wrapper must produce EXACTLY the stdlib sequence — components
	// switched to it keep their seeded behaviour.
	a := rand.New(rand.NewSource(99))
	b := rand.New(NewSource(99))
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("diverged at draw %d", i)
		}
	}
	// Mixed-width draws too.
	a = rand.New(rand.NewSource(7).(rand.Source64))
	b = rand.New(NewSource(7))
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() || a.Int63n(1000) != b.Int63n(1000) {
			t.Fatalf("mixed draws diverged at %d", i)
		}
	}
}

func TestSourceSnapshotRestore(t *testing.T) {
	f := func(seed int64, preDraws uint16) bool {
		src := NewSource(seed)
		r := rand.New(src)
		for i := 0; i < int(preDraws); i++ {
			r.Int63()
		}
		snap := src.Snapshot()
		want := make([]int64, 50)
		for i := range want {
			want[i] = r.Int63()
		}
		// Restore into a source with a different history.
		other := NewSource(seed + 1)
		rand.New(other).Int63()
		if err := other.Restore(snap); err != nil {
			return false
		}
		r2 := rand.New(other)
		for i := range want {
			if r2.Int63() != want[i] {
				return false
			}
		}
		return other.Draws() == uint64(preDraws)+50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSourceRestoreRejectsGarbage(t *testing.T) {
	s := NewSource(1)
	if err := s.Restore([]byte{0xFF, 1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage accepted: %v", err)
	}
	if err := s.Restore(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
}
