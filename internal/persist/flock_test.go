//go:build unix

package persist

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestTryLockFile: a second descriptor — in this process or another —
// gets ErrLocked while the lock is held, and the lock once released.
func TestTryLockFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "leader.lock")
	release, err := TryLockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TryLockFile(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("second TryLockFile while held: err = %v, want ErrLocked", err)
	}
	release()
	again, err := TryLockFile(path)
	if err != nil {
		t.Fatalf("TryLockFile after release: %v", err)
	}
	again()
}
