package persist

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file so that readers of path never observe a
// partial write: the content goes to a temp file in the same directory,
// is fsynced, and is renamed over path; the directory is then fsynced so
// the rename itself is durable. A crash at any byte offset during the
// write leaves either the old file or the new one — never a torn mix.
func WriteFileAtomic(path string, write func(w *os.File) error) error {
	return writeFileAtomic(path, write, nil)
}

// writeFileAtomic is WriteFileAtomic with the rename wrapped by guard
// (nil = none): the file lands only if guard calls rename, and guard's
// error is returned, the temp file removed.
func writeFileAtomic(path string, write func(w *os.File) error, guard func(rename func() error) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("persist: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	rename := func() error { return os.Rename(tmpName, path) }
	if guard != nil {
		err = guard(rename)
	} else {
		err = rename()
	}
	if err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that do not support directory fsync are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		// Some filesystems (and some CI sandboxes) reject fsync on
		// directories; the rename is still ordered after the file fsync.
		return nil
	}
	return nil
}
