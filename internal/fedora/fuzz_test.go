package fedora

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/shard"
)

// retiredLayouts builds one snapshot of each retired top-level layout
// of a controller built from cfg: the bare v1 pipeline blob a one-shard
// controller wrote, the v2 envelope a sharded one wrote around its
// engine container, and an engine container whose meta section is
// version 2 (no digest or round), around one-byte sections. Each maps
// to the phrase its refusal names.
func retiredLayouts(t testing.TB, cfg Config) map[string][]byte {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v1, err := c.SnapshotShard(cfg.ShardBase)
	if err != nil {
		t.Fatal(err)
	}
	geo := containerGeometry(cfg)
	v2Meta, err := persist.Build(func(e *persist.Encoder) error {
		cp := persist.BeginCheckpoint(e, 0)
		cp.BeginSection("shard/meta")
		e.U8(2)
		e.U32(uint32(geo.Shards))
		e.U64(geo.NumRows)
		e.U32(uint32(geo.Base))
		cp.EndSection()
		for i := 0; i < geo.Shards; i++ {
			cp.Section(shard.SectionName(geo.Base+i), []byte{byte(i)})
		}
		cp.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := persist.Build(func(e *persist.Encoder) error {
		e.U8(2)
		e.U32(uint32(geo.Shards))
		e.U64(cfg.Digest())
		e.U64(0)
		e.Bytes(v2Meta)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"retired bare v1 pipeline blob":          v1,
		"retired v2 sharded envelope":            envelope,
		"retired version-2 engine snapshot meta": v2Meta,
	}
}

// TestRetiredSnapshotLayoutsRefused: every retired top-level layout is
// refused by name, at one shard and at three, and replaces nothing.
func TestRetiredSnapshotLayoutsRefused(t *testing.T) {
	for _, cfg := range []Config{shardedCfg(1), shardedCfg(3)} {
		c := newController(t, cfg)
		runRound(t, c, [][]uint64{{1, 50}})
		for name, blob := range retiredLayouts(t, cfg) {
			if err := c.Restore(blob); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%d shards: Restore of a %s = %v, want a refusal naming it", cfg.Shards, name, err)
			}
		}
		if c.Round() != 1 {
			t.Errorf("%d shards: refused restores moved the round to %d", cfg.Shards, c.Round())
		}
	}
}

// assembleSnapshot writes the snapshot of cfg's shards at round from
// ready sections, through WriteSnapshot.
func assembleSnapshot(t testing.TB, cfg Config, round uint64, sections [][]byte) []byte {
	t.Helper()
	sizes := make([]int64, len(sections))
	for i, blob := range sections {
		sizes[i] = int64(len(blob))
	}
	var b bytes.Buffer
	err := WriteSnapshot(&b, cfg, round, sizes, func(i int, w io.Writer) error {
		_, err := w.Write(sections[i])
		return err
	})
	if err != nil || int64(b.Len()) != SnapshotSize(cfg, sizes) {
		t.Fatalf("WriteSnapshot into memory: %d bytes of %d, %v", b.Len(), SnapshotSize(cfg, sizes), err)
	}
	return b.Bytes()
}

// FuzzSplitSnapshot: the controller snapshot's one decoder, under a
// one-shard, a three-shard and a two-shard slice config, either rejects
// arbitrary bytes cleanly or yields a (round, sections) pair that
// WriteSnapshot turns back into bytes decoding to the same pair. Real
// snapshots must reassemble byte for byte; the corpus is seeded with
// their containers around one-byte sections (short inputs keep the
// fuzzer's minimization fast) and with every retired layout.
func FuzzSplitSnapshot(f *testing.F) {
	slice, err := SliceConfig(shardedCfg(3), 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	cfgs := []Config{shardedCfg(1), shardedCfg(3), slice}
	for _, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := c.Snapshot()
		c.Close()
		if err != nil {
			f.Fatal(err)
		}
		round, sections, err := SplitSnapshot(cfg, blob)
		if err != nil {
			f.Fatalf("%d shards: split a real snapshot: %v", cfg.Shards, err)
		}
		if !bytes.Equal(assembleSnapshot(f, cfg, round, sections), blob) {
			f.Fatalf("%d shards: reassembled snapshot differs from the controller's", cfg.Shards)
		}
		for i := range sections {
			sections[i] = []byte{byte(i)}
		}
		blob = assembleSnapshot(f, cfg, round, sections)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	for _, blob := range retiredLayouts(f, shardedCfg(1)) {
		if blob[0] == pipelineSnapshotVersion {
			blob = blob[:1+8+8] // a v1 blob's header is enough
		}
		f.Add(blob)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range cfgs {
			round, sections, err := SplitSnapshot(cfg, data)
			if err != nil {
				continue
			}
			again := assembleSnapshot(t, cfg, round, sections)
			round2, sections2, err := SplitSnapshot(cfg, again)
			if err != nil {
				t.Fatalf("%d shards: reassembled snapshot does not split: %v", cfg.Shards, err)
			}
			if round2 != round || !slices.EqualFunc(sections2, sections, bytes.Equal) {
				t.Fatalf("%d shards: split→assemble→split changed (round %d, %d sections) to (round %d, %d sections)",
					cfg.Shards, round, len(sections), round2, len(sections2))
			}
		}
	})
}
