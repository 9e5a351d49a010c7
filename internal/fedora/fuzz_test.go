package fedora

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzSplitSnapshot: the controller envelope's one decoder, under a
// one-shard and a three-shard config, either rejects arbitrary bytes
// cleanly or yields a (round, sections) pair that AssembleSnapshot turns
// back into bytes decoding to the same pair. Real snapshots must
// reassemble byte for byte; the corpus is seeded with their headers
// around one-byte sections (all SplitSnapshot reads, and short inputs
// keep the fuzzer's minimization fast).
func FuzzSplitSnapshot(f *testing.F) {
	cfgs := []Config{shardedCfg(1), shardedCfg(3)}
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
		if !bytes.Equal(AssembleSnapshot(cfg, round, sections), blob) {
			f.Fatalf("%d shards: reassembled snapshot differs from the controller's", cfg.Shards)
		}
		if cfg.Shards > 1 {
			for i := range sections {
				sections[i] = []byte{byte(i)}
			}
			blob = AssembleSnapshot(cfg, round, sections)
		} else {
			blob = blob[:1+8+8] // the v1 header
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{shardedSnapshotVersion, 3, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range cfgs {
			round, sections, err := SplitSnapshot(cfg, data)
			if err != nil {
				continue
			}
			again := AssembleSnapshot(cfg, round, sections)
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
