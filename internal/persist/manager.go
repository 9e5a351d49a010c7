package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// checkpointPattern names checkpoint files; the epoch is zero-padded so
// lexicographic directory order equals numeric order.
const checkpointPattern = "checkpoint-%08d.fckpt"

// walFileName is the round WAL inside a checkpoint directory.
const walFileName = "rounds.wal"

// Manager owns a checkpoint directory: epoch-numbered checkpoint files
// written atomically, plus the round WAL. It is the single place that
// decides which checkpoint recovery starts from.
type Manager struct {
	dir string
}

// OpenManager creates (if needed) and wraps a checkpoint directory.
func OpenManager(dir string) (*Manager, error) {
	if dir == "" {
		return nil, errors.New("persist: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{dir: dir}, nil
}

// Dir returns the managed directory.
func (m *Manager) Dir() string { return m.dir }

// CheckpointPath returns the file path for an epoch.
func (m *Manager) CheckpointPath(epoch uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf(checkpointPattern, epoch))
}

// WALPath returns the round WAL path.
func (m *Manager) WALPath() string { return filepath.Join(m.dir, walFileName) }

// Save atomically writes cp as the given epoch.
func (m *Manager) Save(epoch uint64, cp *Checkpoint) error {
	cp.Epoch = epoch
	return WriteFileAtomic(m.CheckpointPath(epoch), func(w *os.File) error {
		return cp.Encode(w)
	})
}

// SaveNext writes cp as the epoch after the newest one on disk, then
// prunes to the newest keep (as Prune does), reading the directory
// once for both. Returns the epoch written.
func (m *Manager) SaveNext(cp *Checkpoint, keep int) (uint64, error) {
	epochs, err := m.Epochs()
	if err != nil {
		return 0, err
	}
	next := uint64(1)
	if len(epochs) > 0 {
		next = epochs[len(epochs)-1] + 1
	}
	if err := m.Save(next, cp); err != nil {
		return 0, err
	}
	return next, m.prune(append(epochs, next), keep)
}

// Epochs lists the on-disk checkpoint epochs in ascending order.
func (m *Manager) Epochs() ([]uint64, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, e := range entries {
		var epoch uint64
		if n, err := fmt.Sscanf(e.Name(), checkpointPattern, &epoch); n == 1 && err == nil {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// Load reads and validates one epoch's checkpoint.
func (m *Manager) Load(epoch uint64) (*Checkpoint, error) {
	f, err := os.Open(m.CheckpointPath(epoch))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint epoch %d (%s): %w", epoch, f.Name(), err)
	}
	if cp.Epoch != epoch {
		return nil, fmt.Errorf("%w: checkpoint epoch %d file claims epoch %d", ErrCorrupt, epoch, cp.Epoch)
	}
	return cp, nil
}

// LoadLatest returns the newest checkpoint that validates. Corrupt or
// truncated newer epochs are skipped — each skip is reported in
// `skipped` so callers can surface WHY recovery fell back — and the
// next older epoch is tried. ErrNoCheckpoint is returned when the
// directory has no checkpoint files at all; if files exist but none
// validates, the last corruption error is returned.
func (m *Manager) LoadLatest() (cp *Checkpoint, skipped []error, err error) {
	epochs, err := m.Epochs()
	if err != nil {
		return nil, nil, err
	}
	if len(epochs) == 0 {
		return nil, nil, ErrNoCheckpoint
	}
	var lastErr error
	for i := len(epochs) - 1; i >= 0; i-- {
		cp, loadErr := m.Load(epochs[i])
		if loadErr == nil {
			return cp, skipped, nil
		}
		lastErr = loadErr
		skipped = append(skipped, loadErr)
	}
	return nil, skipped, fmt.Errorf("persist: every checkpoint in %s failed to load: %w", m.dir, lastErr)
}

// Prune removes all but the newest `keep` checkpoints (keep <= 0 keeps
// everything). The WAL is never pruned here: records older than the
// oldest kept checkpoint are simply ignored by recovery.
func (m *Manager) Prune(keep int) error {
	if keep <= 0 {
		return nil
	}
	epochs, err := m.Epochs()
	if err != nil {
		return err
	}
	return m.prune(epochs, keep)
}

// prune removes all but the newest keep of the given ascending epochs.
func (m *Manager) prune(epochs []uint64, keep int) error {
	for keep > 0 && len(epochs) > keep {
		if err := os.Remove(m.CheckpointPath(epochs[0])); err != nil && !os.IsNotExist(err) {
			return err
		}
		epochs = epochs[1:]
	}
	return nil
}
