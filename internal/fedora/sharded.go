package fedora

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/shard"
)

// newSharded builds a sharded controller: cfg.Shards pipelines, each
// complete (own main ORAM, buffer ORAM, position map, devices, TEE engine
// and ε-FDP sampler) over one contiguous row range, driven concurrently
// by a shard.Engine.
func newSharded(cfg Config) (*Controller, error) {
	c := &Controller{cfg: cfg, parts: make([]*pipeline, cfg.Shards)}
	parts := make([]shard.Partition, cfg.Shards)
	for i := range c.parts {
		p, err := newPipeline(shardConfig(cfg, cfg.Shards, i))
		if err != nil {
			return nil, fmt.Errorf("fedora: shard %d: %w", cfg.ShardBase+i, err)
		}
		c.parts[i], parts[i] = p, p
	}
	eng, err := shard.NewEngine(shard.Config{
		Shards:  cfg.Shards,
		NumRows: cfg.NumRows,
		Workers: cfg.ShardWorkers,
		Dummy:   DummyRequest,
		Base:    cfg.ShardBase,
	}, parts)
	if err != nil {
		return nil, err
	}
	c.eng, c.top = eng, eng
	return c, nil
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
