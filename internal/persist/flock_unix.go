//go:build unix

package persist

import (
	"errors"
	"os"
	"syscall"
)

// LockFile takes an exclusive advisory flock on path (created if
// missing), blocking until the lock is held, and returns a release
// function. The lock serializes critical sections across PROCESSES
// sharing a directory — e.g. two coordinator instances claiming the
// next fencing epoch — and is released by the kernel if the holder
// dies, so a crashed holder can never wedge its successor.
func LockFile(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		// Closing the descriptor drops the flock; the explicit unlock just
		// releases waiters before the close syscall.
		_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		_ = f.Close()
	}, nil
}

// TryLockFile is LockFile without the wait: when another descriptor
// holds the lock it returns ErrLocked at once. It suits a lock held for
// a lifetime, such as coordinator leadership, so it keeps a raw
// descriptor: an *os.File's finalizer would close it, and drop the
// lock, once the caller no longer references the release function.
// Call release at most once: it closes that descriptor.
func TryLockFile(path string) (release func(), err error) {
	fd, err := syscall.Open(path, syscall.O_CREAT|syscall.O_RDWR|syscall.O_CLOEXEC, 0o644)
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	if err := syscall.Flock(fd, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = syscall.Close(fd)
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, ErrLocked
		}
		return nil, &os.PathError{Op: "flock", Path: path, Err: err}
	}
	return func() { _ = syscall.Close(fd) }, nil
}
