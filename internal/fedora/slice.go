package fedora

import (
	"fmt"

	"repro/internal/fdp"
	"repro/internal/shard"
)

// This file is the cluster-placement seam: SliceConfig carves a member
// controller's Config out of the GLOBAL sharded config, and the
// SnapshotShard/RestoreShard/ShardRange methods move one shard's state
// between processes as a checkpoint section. The invariant everything
// rests on: a contiguous slice of a balanced (N, S) partition is itself
// the balanced partition of the slice's rows — the global layout puts
// the ⌈N/S⌉-row shards first, so any contiguous slice starts with its
// big shards too and shard.Rows reproduces the exact same sizes. A
// member built from SliceConfig is therefore state-identical, shard for
// shard, to the same slice of a single-process run.

// SliceConfig derives the Config of a cluster member serving the
// contiguous shard slice [first, first+count) of the global sharded
// config. A one-shard slice becomes a controller over the one pipeline
// the single-process engine would have built for that shard (same derived
// seed, storage prefix, device names and row offset); a wider slice
// becomes a sharded controller with ShardBase pinning the global
// indices.
//
// HideCount is rejected for proper multi-shard slices: dummy padding
// routes by GLOBAL (client, position) round-robin, which a member's
// local engine cannot reproduce — place one shard per member (or the
// whole engine on one member) when hiding feature counts.
func SliceConfig(global Config, first, count int) (Config, error) {
	(&global).setDefaults()
	if err := global.validate(); err != nil {
		return Config{}, err
	}
	S := global.Shards
	if S < 1 {
		S = 1
	}
	if global.ShardBase != 0 {
		return Config{}, fmt.Errorf("fedora: SliceConfig wants the global config, got a slice (ShardBase %d)", global.ShardBase)
	}
	if first < 0 || count < 1 || first+count > S {
		return Config{}, fmt.Errorf("fedora: shard slice [%d,%d) outside [0,%d)", first, first+count, S)
	}
	if global.HideCount && count > 1 && count < S {
		return Config{}, fmt.Errorf("fedora: HideCount requires one shard per member: dummy padding routes by global (client, position), which a %d-shard slice cannot reproduce", count)
	}
	if first == 0 && count == S {
		return global, nil
	}
	if count == 1 {
		// Exactly the pipeline config newSharded derives for global shard
		// `first` (global.ShardBase is 0 here).
		return shardConfig(global, S, first), nil
	}
	slice := global
	slice.Shards = count
	slice.ShardBase = first
	rowBase := shard.Base(global.NumRows, S, first)
	slice.NumRows = shard.Base(global.NumRows, S, first+count) - rowBase
	if global.InitRow != nil {
		init := global.InitRow
		slice.InitRow = func(row uint64) []float32 { return init(rowBase + row) }
	}
	// Seed, Storage and WrapDevice stay global: newSharded derives the
	// per-shard seed, prefix and device name from ShardBase+i, which are
	// the global shard indices.
	return slice, nil
}

// SliceRowBase returns the first global row of the shard slice
// [first, first+count) — the offset a member's local row space sits at.
func SliceRowBase(global Config, first int) uint64 {
	S := global.Shards
	if S < 1 {
		S = 1
	}
	return shard.Base(global.NumRows, S, first)
}

// EffectiveEpsilon computes the per-value ε the config yields (group
// privacy divides ε by the padded feature count when hiding it),
// without building a controller.
func (cfg Config) EffectiveEpsilon() float64 {
	(&cfg).setDefaults()
	if cfg.HideCount {
		return fdp.GroupEpsilon(cfg.Epsilon, cfg.MaxFeaturesPerClient)
	}
	return cfg.Epsilon
}

// ShardRange reports the GLOBAL shard slice this controller serves:
// [first, first+count). A standalone controller serves [0, Shards) (or
// the single pseudo-shard [0, 1) when monolithic).
func (c *Controller) ShardRange() (first, count int) {
	return c.cfg.ShardBase, len(c.parts)
}

// SnapshotShard serializes one shard's complete pipeline state,
// addressed by GLOBAL shard index. The blob is a monolithic controller
// snapshot — exactly the checkpoint section a full engine snapshot
// stores for that shard — so it can be replayed by RestoreShard on any
// controller that owns the shard, in any process.
func (c *Controller) SnapshotShard(global int) ([]byte, error) {
	if c.eng != nil {
		return c.eng.SnapshotShard(global)
	}
	if global != c.cfg.ShardBase {
		return nil, fmt.Errorf("fedora: shard %d outside controller slice [%d,%d)", global, c.cfg.ShardBase, c.cfg.ShardBase+1)
	}
	return c.Snapshot()
}

// RestoreShard replays one shard's section, addressed by GLOBAL shard
// index. If the shard was quarantined it returns to service (counted as
// a recovery). This is the migration primitive: a coordinator exports
// the section from the newest cluster checkpoint and replays it onto
// whichever node owns the shard now. The controller must be quiesced
// (AbortRound first if a fence orphaned a round).
func (c *Controller) RestoreShard(global int, blob []byte) error {
	if c.eng != nil {
		return c.eng.RestoreShard(global, blob)
	}
	if global != c.cfg.ShardBase {
		return fmt.Errorf("fedora: shard %d outside controller slice [%d,%d)", global, c.cfg.ShardBase, c.cfg.ShardBase+1)
	}
	return c.Restore(blob)
}
