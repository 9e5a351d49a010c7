package shard

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/persist"
)

// testDigest and testRound stand for the owner's config digest and
// round a fedora.Controller stamps into its container.
const testDigest, testRound = 0xfeed, 7

// snapshot, restore and recoverFrom move an engine's partitions through
// an engine container, as a fedora.Controller frames them.
func snapshot(e *Engine) ([]byte, error) {
	return persist.Build(func(enc *persist.Encoder) error {
		return e.SnapshotTo(enc, testDigest, testRound)
	})
}

func restore(e *Engine, b []byte) error {
	_, sections, err := DecodeContainer(b, e.cfg, testDigest)
	if err != nil {
		return err
	}
	return e.Restore(sections)
}

func recoverFrom(e *Engine, b []byte) ([]int, error) {
	_, sections, err := DecodeContainer(b, e.cfg, testDigest)
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

// TestContainerMeta: the meta section carries the owner's round back
// out, refuses another owner's digest after the shard count, and
// refuses the retired version-2 meta by name.
func TestContainerMeta(t *testing.T) {
	e, _ := newFakeEngine(t, 100, 4, 0)
	blob, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	if round, _, err := DecodeContainer(blob, e.cfg, testDigest); err != nil || round != testRound {
		t.Fatalf("DecodeContainer = round %d, %v; want %d", round, err, testRound)
	}
	if _, _, err := DecodeContainer(blob, e.cfg, testDigest+1); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("foreign digest error = %v", err)
	}
	e2, _ := newFakeEngine(t, 100, 2, 0)
	if _, _, err := DecodeContainer(blob, e2.cfg, testDigest+1); err == nil || !strings.Contains(err.Error(), "4 shards") {
		t.Errorf("shard count and digest both wrong: error = %v, want the shard-count one", err)
	}

	v2, err := persist.Build(func(enc *persist.Encoder) error {
		cp := persist.BeginCheckpoint(enc, 0)
		cp.BeginSection(metaSection)
		enc.U8(2)
		enc.U32(uint32(e.cfg.Shards))
		enc.U64(e.cfg.NumRows)
		enc.U32(0)
		cp.EndSection()
		for i := 0; i < e.cfg.Shards; i++ {
			cp.Section(SectionName(i), []byte{byte(i)})
		}
		cp.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeContainer(v2, e.cfg, testDigest); err == nil || !strings.Contains(err.Error(), "retired version-2") {
		t.Errorf("version-2 meta error = %v, want the retired-version refusal", err)
	}
}

// TestWriteContainerMatchesEncodeContainer: the container streamed from
// sections of known size is the engine's in-place container byte for
// byte, and ContainerSize is its length — at one, two and three shards,
// and with an empty section.
func TestWriteContainerMatchesEncodeContainer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		states [][]byte
	}{
		{"1shard", [][]byte{[]byte("only")}},
		{"2shards", [][]byte{[]byte("first"), bytes.Repeat([]byte{7}, 1000)}},
		{"3shards", [][]byte{{1}, []byte("second"), []byte("third shard")}},
		{"empty-section", [][]byte{[]byte("a"), nil, []byte("c")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, fakes := newFakeEngine(t, 100, len(tc.states), 0)
			sizes := make([]int64, len(tc.states))
			for i, state := range tc.states {
				fakes[i].state = state
				sizes[i] = int64(len(state))
			}
			want, err := snapshot(e)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			err = WriteContainer(&got, e.cfg, testDigest, testRound, sizes, func(i int, w io.Writer) error {
				_, err := w.Write(tc.states[i])
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("streamed container (%d bytes) differs from the in-place one (%d bytes)", got.Len(), len(want))
			}
			if n := ContainerSize(e.cfg, sizes); n != int64(len(want)) {
				t.Fatalf("ContainerSize = %d, want %d", n, len(want))
			}
		})
	}
}

// TestWriteContainerShortSection: a section that writes fewer bytes than
// its declared size fails the container, naming the shard.
func TestWriteContainerShortSection(t *testing.T) {
	e, _ := newFakeEngine(t, 100, 2, 0)
	err := WriteContainer(io.Discard, e.cfg, testDigest, testRound, []int64{3, 4}, func(i int, w io.Writer) error {
		_, err := w.Write([]byte("abc")[:3-i])
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("short section error = %v, want one naming shard 1", err)
	}
}
