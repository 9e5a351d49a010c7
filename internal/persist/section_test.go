package persist

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestSaveSectionRoundTrip: a section saved with SaveSection loads back
// byte for byte from the epoch SaveSection reported, and a snapshot
// error is returned without writing anything.
func TestSaveSectionRoundTrip(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.LoadSection(ControllerSection); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LoadSection on an empty directory = %v, want ErrNoCheckpoint", err)
	}
	want := bytes.Repeat([]byte{7, 1}, 300)
	epoch, err := m.SaveSection(ControllerSection, func() ([]byte, error) { return want, nil })
	if err != nil || epoch != 1 {
		t.Fatalf("SaveSection = %d, %v; want epoch 1", epoch, err)
	}
	got, gotEpoch, skipped, err := m.LoadSection(ControllerSection)
	if err != nil || gotEpoch != 1 || len(skipped) != 0 || !bytes.Equal(got, want) {
		t.Fatalf("LoadSection = %d bytes, epoch %d, skipped %v, %v; want the saved %d bytes at epoch 1",
			len(got), gotEpoch, skipped, err, len(want))
	}

	boom := errors.New("snapshot failed")
	if _, err := m.SaveSection(ControllerSection, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("SaveSection with a failing snapshot = %v, want the snapshot's error", err)
	}
	if epochs, err := m.Epochs(); err != nil || len(epochs) != 1 {
		t.Fatalf("epochs after a failed snapshot = %v, %v; want [1]", epochs, err)
	}
}

// TestSaveSectionKeepsThree: every save prunes the directory to the
// newest three epochs, and the newest one is what LoadSection returns.
func TestSaveSectionKeepsThree(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 5; i++ {
		if _, err := m.SaveSection(ControllerSection, func() ([]byte, error) { return []byte{i}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	epochs, err := m.Epochs()
	if err != nil || len(epochs) != 3 || epochs[0] != 3 || epochs[2] != 5 {
		t.Fatalf("epochs after five saves = %v, %v; want [3 4 5]", epochs, err)
	}
	got, epoch, _, err := m.LoadSection(ControllerSection)
	if err != nil || epoch != 5 || !bytes.Equal(got, []byte{5}) {
		t.Fatalf("LoadSection = %v at epoch %d, %v; want [5] at epoch 5", got, epoch, err)
	}
}

// TestLoadSectionMissing: a checkpoint without the asked-for section is
// an ErrCorrupt error naming the epoch and the section.
func TestLoadSectionMissing(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SaveSection("fl/trainer", func() ([]byte, error) { return []byte{1}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SaveSection("fl/trainer", func() ([]byte, error) { return []byte{2}, nil }); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = m.LoadSection(ControllerSection)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section: err = %v, want ErrCorrupt", err)
	}
	for _, want := range []string{"epoch 2", `"` + ControllerSection + `"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("missing-section error %q does not name %s", err, want)
		}
	}
}

// TestPutStreamEncodesAsPut: a section streamed at Encode time is framed
// byte for byte like the same payload Put in hand, CheckpointSize is the
// stream's length, and a stream that comes up short fails the encode.
func TestPutStreamEncodesAsPut(t *testing.T) {
	payload := bytes.Repeat([]byte("section"), 1000)
	want := NewCheckpoint()
	want.Epoch = 4
	want.Put("a", []byte("in hand"))
	want.Put(ControllerSection, payload)
	var wantBuf bytes.Buffer
	if err := want.Encode(&wantBuf); err != nil {
		t.Fatal(err)
	}

	got := NewCheckpoint()
	got.Epoch = 4
	got.Put("a", []byte("in hand"))
	got.PutStream(ControllerSection, int64(len(payload)), func(w io.Writer) error {
		_, err := io.Copy(w, bytes.NewReader(payload))
		return err
	})
	var gotBuf bytes.Buffer
	if err := got.Encode(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("streamed checkpoint (%d bytes) differs from the in-hand one (%d bytes)", gotBuf.Len(), wantBuf.Len())
	}
	frames := FrameSize("a", 7) + FrameSize(ControllerSection, int64(len(payload)))
	if n := CheckpointSize(frames); n != int64(wantBuf.Len()) {
		t.Fatalf("CheckpointSize = %d, want %d", n, wantBuf.Len())
	}

	short := NewCheckpoint()
	short.PutStream(ControllerSection, int64(len(payload)), func(w io.Writer) error {
		_, err := w.Write(payload[1:])
		return err
	})
	if err := short.Encode(io.Discard); err == nil {
		t.Fatal("a stream one byte short of its size encoded")
	}
}
