package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// checkpointPattern names checkpoint files; the epoch is zero-padded so
// lexicographic directory order equals numeric order.
const checkpointPattern = "checkpoint-%08d.fckpt"

// walFileName is the round WAL inside a checkpoint directory.
const walFileName = "rounds.wal"

// keepEpochs is how many checkpoint epochs SaveNext retains.
const keepEpochs = 3

// ControllerSection is the checkpoint section holding a controller
// snapshot. Every durable layer — fedora-server, api.WithAutoRecover,
// the cluster coordinator and fl.Runner — stores it under this one
// name, so one checkpoint directory serves all of them.
const ControllerSection = "fedora/controller"

// Manager owns a checkpoint directory: epoch-numbered checkpoint files
// written atomically, plus the round WAL. It is the single place that
// decides which checkpoint recovery starts from, and it writes every
// checkpoint through one background saver (Start), one save at a time.
type Manager struct {
	dir string

	// startMu serializes Start: waiting out the save in flight, taking
	// the next snapshot and launching its save happen as one step.
	startMu sync.Mutex
	mu      sync.Mutex
	saving  chan struct{} // closed when the save in flight ends; nil when none
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
	return m.save(epoch, cp, nil)
}

// save writes cp as epoch through WriteFileAtomic; guard, when set,
// wraps the rename (see Save.Guard).
func (m *Manager) save(epoch uint64, cp *Checkpoint, guard func(rename func() error) error) error {
	cp.Epoch = epoch
	return writeFileAtomic(m.CheckpointPath(epoch), func(w *os.File) error {
		return cp.Encode(w)
	}, guard)
}

// A Save is one checkpoint for the Manager's background saver. Only
// Take runs on the caller; everything after it — build, frame, write,
// fsync, rename, prune, Saved — runs on the saver goroutine.
type Save struct {
	// Take reads the state to checkpoint and returns the function that
	// builds the checkpoint from what it read. It runs on the caller of
	// Start once no other save is in flight, so a Take never overlaps a
	// save: it is what the caller's next step waits for.
	Take func() (build func() (*Checkpoint, error), err error)
	// Guard, when set, wraps the rename that makes the checkpoint
	// visible: the file lands only if Guard calls rename, and Guard's
	// error is the save's. A caller sharing the directory with other
	// processes checks its right to write there under a lock.
	Guard func(rename func() error) error
	// Saved, when set, runs last on the saver with the epoch written (0
	// on failure) and the save's error — the after-save hook. It must
	// not wait for the Manager: the save it reports is still in flight.
	Saved func(epoch uint64, err error)
}

// Start runs s.Take on the caller — after waiting for the save in
// flight, if any — and hands the rest of the save to a background
// goroutine: the next epoch is written and older epochs pruned to the
// newest three, then s.Saved runs. It returns Take's error, in which
// case nothing runs in the background. Wait, and the Manager's reads,
// wait for the save.
func (m *Manager) Start(s Save) error {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	m.Wait()
	build, err := s.Take()
	if err != nil {
		return err
	}
	done := make(chan struct{})
	m.mu.Lock()
	m.saving = done
	m.mu.Unlock()
	go func() {
		epoch, err := m.saveNext(build, s.Guard)
		if s.Saved != nil {
			s.Saved(epoch, err)
		}
		m.mu.Lock()
		m.saving = nil
		m.mu.Unlock()
		close(done)
	}()
	return nil
}

// Wait blocks until no save is in flight: a save started before the
// call has been written (or has failed) and its Saved hook has run.
func (m *Manager) Wait() {
	m.mu.Lock()
	done := m.saving
	m.mu.Unlock()
	if done != nil {
		<-done
	}
}

// saveNext is the saver's body: build the checkpoint, write it as the
// epoch after the newest one on disk, then prune to the newest three,
// reading the directory once for both.
func (m *Manager) saveNext(build func() (*Checkpoint, error), guard func(rename func() error) error) (uint64, error) {
	cp, err := build()
	if err != nil {
		return 0, err
	}
	epochs, err := m.epochs()
	if err != nil {
		return 0, err
	}
	next := uint64(1)
	if len(epochs) > 0 {
		next = epochs[len(epochs)-1] + 1
	}
	if err := m.save(next, cp, guard); err != nil {
		return 0, err
	}
	return next, m.prune(append(epochs, next), keepEpochs)
}

// SaveNext writes cp as the epoch after the newest one on disk, then
// prunes to the newest three (as Prune does), through the background
// saver, and waits for it. Returns the epoch written.
func (m *Manager) SaveNext(cp *Checkpoint) (uint64, error) {
	return m.saveSync(func() (*Checkpoint, error) { return cp, nil })
}

// SaveSection saves the blob snapshot returns as the only section of
// the next epoch (see SaveNext). A snapshot error is returned as is.
func (m *Manager) SaveSection(name string, snapshot func() ([]byte, error)) (uint64, error) {
	return m.saveSync(func() (*Checkpoint, error) {
		blob, err := snapshot()
		return OneSection(name, blob), err
	})
}

// saveSync is Start for the synchronous callers: snapshot runs as the
// Take and its checkpoint is saved as the next epoch through the same
// background saver, which saveSync then waits for.
func (m *Manager) saveSync(snapshot func() (*Checkpoint, error)) (uint64, error) {
	type result struct {
		epoch uint64
		err   error
	}
	done := make(chan result, 1)
	err := m.Start(Save{
		Take: func() (func() (*Checkpoint, error), error) {
			cp, err := snapshot()
			return func() (*Checkpoint, error) { return cp, nil }, err
		},
		Saved: func(epoch uint64, err error) { done <- result{epoch, err} },
	})
	if err != nil {
		return 0, err
	}
	r := <-done
	return r.epoch, r.err
}

// OneSection returns a checkpoint holding blob as its only section.
func OneSection(name string, blob []byte) *Checkpoint {
	cp := NewCheckpoint()
	cp.Put(name, blob)
	return cp
}

// LoadSection returns the named section of the newest checkpoint that
// validates, with that checkpoint's epoch; the wait for a save in
// flight, skipped and the ErrNoCheckpoint case are as LoadLatest's.
func (m *Manager) LoadSection(name string) (blob []byte, epoch uint64, skipped []error, err error) {
	cp, skipped, err := m.LoadLatest()
	if err != nil {
		return nil, 0, skipped, err
	}
	blob, err = cp.Section(name)
	return blob, cp.Epoch, skipped, err
}

// Epochs lists the on-disk checkpoint epochs in ascending order, once
// the save in flight has finished. Only exact checkpoint names count:
// Sscanf ignores trailing text, so the name is matched back, and a temp
// file WriteFileAtomic left behind in a crash is not an epoch.
func (m *Manager) Epochs() ([]uint64, error) {
	m.Wait()
	return m.epochs()
}

// epochs is Epochs without the wait: the saver's own directory read.
func (m *Manager) epochs() ([]uint64, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, e := range entries {
		var epoch uint64
		if n, err := fmt.Sscanf(e.Name(), checkpointPattern, &epoch); n == 1 && err == nil &&
			e.Name() == fmt.Sprintf(checkpointPattern, epoch) {
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

// LoadLatest returns the newest checkpoint that validates, once the
// save in flight has finished. Corrupt or
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
