package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// appendNamed appends one raw frame per name, each with its name as the
// payload.
func appendNamed(t *testing.T, w *WAL, names ...string) {
	t.Helper()
	for _, n := range names {
		if err := w.AppendRaw(n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
}

// walNames reads the log at path back as its frame names.
func walNames(t *testing.T, path string) string {
	t.Helper()
	recs, torn, err := ReadRawWALFile(path)
	if err != nil || torn {
		t.Fatalf("read %s: torn=%v err=%v", path, torn, err)
	}
	var names []string
	for _, r := range recs {
		names = append(names, r.Name)
	}
	return strings.Join(names, ",")
}

// fileTail reads the file at path from byte off on.
func fileTail(t *testing.T, path string, off int64) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b[off:]
}

// TestWALCutKeepsFramesAfterMark: Cut drops the frames appended before
// the Mark and keeps the ones after it byte for byte; the log keeps
// appending after the cut, a later mark still names its place, and a
// mark already cut past is a no-op.
func TestWALCutKeepsFramesAfterMark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendNamed(t, w, "a", "b")
	mark, err := w.Mark()
	if err != nil {
		t.Fatal(err)
	}
	appendNamed(t, w, "c", "d")
	kept := fileTail(t, path, mark)

	if err := w.Cut(mark); err != nil {
		t.Fatal(err)
	}
	if got := walNames(t, path); got != "c,d" {
		t.Fatalf("after the cut: frames %q, want c,d", got)
	}
	if got := fileTail(t, path, int64(len(WALMagic))); !bytes.Equal(got, kept) {
		t.Fatalf("the frames after the mark changed: %x, want %x", got, kept)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory after the cut: %v (%v), want the log alone", entries, err)
	}

	appendNamed(t, w, "e")
	mark2, err := w.Mark()
	if err != nil {
		t.Fatal(err)
	}
	appendNamed(t, w, "f")
	if err := w.Cut(mark); err != nil { // already cut: nothing to drop
		t.Fatal(err)
	}
	if got := walNames(t, path); got != "c,d,e,f" {
		t.Fatalf("after a repeated cut: frames %q, want c,d,e,f", got)
	}
	if err := w.Cut(mark2); err != nil {
		t.Fatal(err)
	}
	if got := walNames(t, path); got != "f" {
		t.Fatalf("after the second cut: frames %q, want f", got)
	}
	if err := w.Cut(mark2 + 1<<20); err == nil {
		t.Fatal("a mark past the log's end was accepted")
	}
}

// TestWALCutCrashBeforeRenameReadsOldLog: the cut never writes the log
// file in place — the old file's bytes are untouched until the rename
// replaces it — so a crash before the rename reads back as the old log.
func TestWALCutCrashBeforeRenameReadsOldLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rounds.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendNamed(t, w, "a", "b")
	mark, err := w.Mark()
	if err != nil {
		t.Fatal(err)
	}
	appendNamed(t, w, "c")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path) // what the path names until the rename
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	if err := w.Cut(mark); err != nil {
		t.Fatal(err)
	}
	after, err := io.ReadAll(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("the cut rewrote the old log in place")
	}
	crashed := filepath.Join(dir, "crashed.wal")
	if err := os.WriteFile(crashed, after, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := walNames(t, crashed); got != "a,b,c" {
		t.Fatalf("the log a crash before the rename leaves: frames %q, want a,b,c", got)
	}
}

// TestWALCutAtEndResets: with nothing appended after the mark, Cut is
// Reset — the log is truncated in place to its magic.
func TestWALCutAtEndResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rounds.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendNamed(t, w, "a")
	st0, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mark, err := w.Mark()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cut(mark); err != nil {
		t.Fatal(err)
	}
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(st0, st1) || st1.Size() != int64(len(WALMagic)) {
		t.Fatalf("cut at the end: same file %v, size %d; want the log reset in place", os.SameFile(st0, st1), st1.Size())
	}
	appendNamed(t, w, "b")
	if got := walNames(t, path); got != "b" {
		t.Fatalf("after the reset: frames %q, want b", got)
	}
}

// blockedSave starts a save whose build waits for release; it returns
// the channel Saved reports on.
func blockedSave(t *testing.T, m *Manager, release <-chan struct{}) <-chan error {
	t.Helper()
	saved := make(chan error, 1)
	err := m.Start(Save{
		Take: func() (func() (*Checkpoint, error), error) {
			return func() (*Checkpoint, error) {
				<-release
				return OneSection("s", []byte("blob")), nil
			}, nil
		},
		Saved: func(_ uint64, err error) { saved <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	return saved
}

// TestStartSavesInBackground: Start returns once Take has run; the
// save runs on the saver, and Epochs — like every read through the
// Manager — waits for it, Saved hook included.
func TestStartSavesInBackground(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	saved := blockedSave(t, m, release)

	read := make(chan []uint64, 1)
	go func() {
		epochs, err := m.Epochs()
		if err != nil {
			t.Error(err)
		}
		read <- epochs
	}()
	select {
	case epochs := <-read:
		t.Fatalf("Epochs returned %v while the save was in flight", epochs)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if epochs := <-read; len(epochs) != 1 || epochs[0] != 1 {
		t.Fatalf("epochs after the save: %v, want [1]", epochs)
	}
}

// TestStartOneSaveAtATime: a second Start waits for the save in flight
// before it takes its own snapshot.
func TestStartOneSaveAtATime(t *testing.T) {
	m, err := OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	first := blockedSave(t, m, release)

	took := make(chan struct{})
	second := make(chan error, 1)
	go func() {
		second <- m.Start(Save{Take: func() (func() (*Checkpoint, error), error) {
			close(took)
			return func() (*Checkpoint, error) { return OneSection("s", []byte("two")), nil }, nil
		}})
	}()
	select {
	case <-took:
		t.Fatal("the second snapshot was taken while the first save was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if epochs, err := m.Epochs(); err != nil || len(epochs) != 2 {
		t.Fatalf("epochs after two saves: %v (%v), want two", epochs, err)
	}
}

// TestSaveGuardRefusesRename: a Guard that does not call rename keeps
// the checkpoint off the disk — no epoch, no temp file — and its error
// is the save's.
func TestSaveGuardRefusesRename(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	saved := make(chan error, 1)
	err = m.Start(Save{
		Take: func() (func() (*Checkpoint, error), error) {
			return func() (*Checkpoint, error) { return OneSection("s", []byte("blob")), nil }, nil
		},
		Guard: func(func() error) error { return refused },
		Saved: func(_ uint64, err error) { saved <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-saved; !errors.Is(err, refused) {
		t.Fatalf("save error %v, want the guard's", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory after a refused save: %v (%v), want empty", entries, err)
	}
}
