package fedora

import (
	"fmt"

	"repro/internal/device"
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
		// Exactly the pipeline config New derives for global shard
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
	// Seed, Storage and WrapDevice stay global: New derives the
	// per-shard seed, prefix and device name from ShardBase+i, which are
	// the global shard indices.
	return slice, nil
}

// shardConfig derives the pipeline config of shard i when cfg's rows are
// split S ways. Seeds, storage prefixes and device names come from the
// shard's GLOBAL index g: a standalone sharded controller has ShardBase 0
// and g == i; a cluster member serving the slice [ShardBase,
// ShardBase+Shards) gets the values the same shard has in a single-
// process run, so the two are state-identical.
func shardConfig(cfg Config, S, i int) Config {
	g := cfg.ShardBase + i
	sub := cfg
	sub.Shards = 0
	sub.ShardWorkers = 0
	sub.ShardBase = g
	sub.NumRows = shard.Rows(cfg.NumRows, S, i)
	// Independent, deterministic RNG stream per shard: results are
	// bit-identical at any worker count.
	sub.Seed = shard.Seed(cfg.Seed, g)
	// One backing file per shard under the file backend; the prefix
	// also qualifies the device name ("shard3/ssd") in storage reports.
	sub.Storage.Prefix = fmt.Sprintf("shard%d", g)
	if init := cfg.InitRow; init != nil {
		base := shard.Base(cfg.NumRows, S, i)
		sub.InitRow = func(row uint64) []float32 { return init(base + row) }
	}
	if wrap := cfg.WrapDevice; wrap != nil {
		// Qualify device names per shard so a fault plan can target
		// "shard1/ssd" (one shard's SSD) or "shard*/ssd" (all of them).
		sub.WrapDevice = func(name string, d device.Device) device.Device {
			return wrap(fmt.Sprintf("shard%d/%s", g, name), d)
		}
	}
	return sub
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
// the single shard [0, 1) when Shards ≤ 1).
func (c *Controller) ShardRange() (first, count int) {
	return c.cfg.ShardBase, len(c.parts)
}

// SnapshotShard serializes one shard's complete pipeline state,
// addressed by GLOBAL shard index. The blob is the shard's pipeline
// blob — exactly the section the controller's snapshot stores for that
// shard, at any shard count — so it can be replayed by RestoreShard on
// any controller that owns the shard, in any process.
func (c *Controller) SnapshotShard(global int) ([]byte, error) {
	return c.eng.SnapshotShard(global)
}

// RestoreShard replays one shard's section, addressed by GLOBAL shard
// index. If the shard was quarantined it returns to service (counted as
// a recovery). This is the migration primitive: a coordinator exports
// the section from the newest cluster checkpoint and replays it onto
// whichever node owns the shard now. The controller must be quiesced
// (AbortRound first if a fence orphaned a round). The controller round
// is left alone at every shard count: only a whole Restore takes the
// round, from the snapshot's container.
func (c *Controller) RestoreShard(global int, blob []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.RestoreShard(global, blob)
}
