//go:build !unix

package persist

import (
	"errors"
	"os"
)

// LockFile without flock(2): the file is created for parity but no
// cross-process lock is taken. Deployments that need the lock — two
// coordinator processes sharing one checkpoint directory — are
// unix-only; single-process use never contends.
func LockFile(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return func() { _ = f.Close() }, nil
}

// TryLockFile without flock(2) fails: the lock it stands for is
// leadership, and granting it unlocked would let two leaders run.
func TryLockFile(path string) (release func(), err error) {
	return nil, errors.New("persist: TryLockFile needs flock(2), which this platform lacks")
}
