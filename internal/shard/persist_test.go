package shard

import (
	"strings"
	"testing"

	"repro/internal/persist"
)

// snapshot, restore and recoverFrom move an engine's partitions through
// an engine container, as a sharded fedora.Controller frames them.
func snapshot(e *Engine) ([]byte, error) {
	return persist.Build(func(enc *persist.Encoder) error {
		return e.SnapshotTo(enc, func(_ int, section func(i int) error) error {
			return EncodeContainer(enc, e.cfg, section)
		})
	})
}

func restore(e *Engine, b []byte) error {
	sections, err := DecodeContainer(b, e.cfg)
	if err != nil {
		return err
	}
	return e.Restore(sections)
}

func recoverFrom(e *Engine, b []byte) ([]int, error) {
	sections, err := DecodeContainer(b, e.cfg)
	if err != nil {
		return nil, err
	}
	return e.Recover(sections)
}

// TestEngineSnapshotRoundTrip verifies every partition's blob survives
// the checkpoint container, keyed by its section name.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 4, 0)
	for i, fake := range fakes {
		fake.state = []byte{byte(i), byte(i + 1), byte(i + 2)}
	}
	blob, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	e2, fakes2 := newFakeEngine(t, 100, 4, 0)
	if err := restore(e2, blob); err != nil {
		t.Fatal(err)
	}
	for i, fake := range fakes2 {
		if string(fake.state) != string(fakes[i].state) {
			t.Errorf("shard %d restored %v, want %v", i, fake.state, fakes[i].state)
		}
	}
}

// TestRestoreRejectsShardCountMismatch pins the clear-error requirement:
// a snapshot written under a different partition count must not restore.
func TestRestoreRejectsShardCountMismatch(t *testing.T) {
	e4, _ := newFakeEngine(t, 100, 4, 0)
	blob, err := snapshot(e4)
	if err != nil {
		t.Fatal(err)
	}
	e2, fakes2 := newFakeEngine(t, 100, 2, 0)
	err = restore(e2, blob)
	if err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if !strings.Contains(err.Error(), "4 shards") || !strings.Contains(err.Error(), "2") {
		t.Errorf("mismatch error %q does not name both shard counts", err)
	}
	for i, fake := range fakes2 {
		if fake.state != nil {
			t.Errorf("shard %d state mutated by rejected restore", i)
		}
	}
}

// TestRestoreRejectsRowCountMismatch: same geometry guard for NumRows.
func TestRestoreRejectsRowCountMismatch(t *testing.T) {
	e, _ := newFakeEngine(t, 100, 4, 0)
	blob, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := newFakeEngine(t, 200, 4, 0)
	if err := restore(e2, blob); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Errorf("row-count mismatch error = %v", err)
	}
}

// TestRestoreRejectsGarbage: corrupt container bytes fail cleanly.
func TestRestoreRejectsGarbage(t *testing.T) {
	e, _ := newFakeEngine(t, 100, 4, 0)
	if err := restore(e, []byte("not a checkpoint")); err == nil {
		t.Fatal("garbage restore accepted")
	}
}

// TestSnapshotRejectedMidRound: engine state is only serializable
// between rounds, like the monolithic controller.
func TestSnapshotRejectedMidRound(t *testing.T) {
	e, _ := newFakeEngine(t, 100, 4, 0)
	r, err := e.BeginRound([][]uint64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot(e); err != ErrRoundOpen {
		t.Errorf("mid-round Snapshot = %v, want ErrRoundOpen", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot(e); err != nil {
		t.Errorf("post-round Snapshot failed: %v", err)
	}
}
