package fedora

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/persist"
	"repro/internal/shard"
)

// pipeline.Snapshot/Restore glue every component snapshot into one
// blob: both RNG sources, the selector's cross-round metadata, the FDP
// accountant, the TEE scratchpad and engine counters, the main ORAM
// (backend-tagged), the buffer ORAM, and both simulated devices (whose
// page stores hold the actual tree bytes). Snapshots are only taken
// between rounds — BeginRound..FinishRound state is deliberately not
// serializable; recovery re-executes the interrupted round from the WAL.

const (
	controllerSnapshotVersion = 1
	// shardedSnapshotVersion tags snapshots of sharded controllers: a
	// shard count + config digest header wrapping the shard.Engine
	// container (one named section per shard). The two formats are
	// deliberately distinct so cross-mode restores fail with a clear
	// message instead of a decode error.
	shardedSnapshotVersion = 2
)

// ErrRoundOpen is returned by Snapshot when a round is in flight. It is
// the shard engine's sentinel, so a sharded controller's per-shard
// export reports the same error as its whole snapshot.
var ErrRoundOpen = shard.ErrRoundOpen

// Digest fingerprints the semantically relevant Config fields. A
// snapshot only restores into a controller whose config has an
// identical digest — geometry, privacy parameters, and seeds must all
// match for replay to be meaningful.
func (cfg Config) Digest() uint64 {
	var e persist.Encoder
	e.U8(uint8(cfg.Backend))
	e.U64(cfg.NumRows)
	e.U32(uint32(cfg.Dim))
	e.U64(math.Float64bits(cfg.Epsilon))
	e.Bool(cfg.HideCount)
	e.U32(uint32(cfg.ChunkSize))
	e.U32(uint32(cfg.MaxClientsPerRound))
	e.U32(uint32(cfg.MaxFeaturesPerClient))
	e.U32(math.Float32bits(cfg.LearningRate))
	e.I64(cfg.Seed)
	e.Bool(cfg.Phantom)
	e.Bool(cfg.Encrypt)
	e.Bool(cfg.HasScratchpad)
	e.U32(uint32(cfg.BucketBytes))
	e.U8(uint8(cfg.Selection))
	e.U32(uint32(cfg.EvictPeriod))
	e.Bool(false) // was SortedUnion, now the only union; kept so existing checkpoints' digests match
	// ShardWorkers, ShardBase, Storage and Prefetch are deliberately
	// excluded: the worker count and the storage backend are purely
	// operational knobs that never affect state — a checkpoint taken over
	// the simulator restores onto a file-backed controller and vice versa
	// — and slice placement is pinned by the engine snapshot's base field
	// (plus the shard-derived Seed for one-shard members), so per-shard
	// sections stay portable between a single-process run and any member.
	// Prefetch only reorders wall-clock execution (Snapshot drains any
	// deferred write-back pass first), so snapshots move freely between a
	// prefetching and a synchronous run of the same config.
	e.U32(uint32(cfg.Shards))
	h := fnv.New64a()
	h.Write(e.Finish())
	return h.Sum64()
}

// Snapshot serializes the controller's full dynamic state. It fails with
// ErrRoundOpen if called between BeginRound and Finish. A one-shard
// controller's snapshot is its pipeline's blob as is (format v1, which
// is also a shard's section in the engine container); a sharded one
// wraps the engine container in the v2 header.
func (c *Controller) Snapshot() ([]byte, error) { return persist.Build(c.SnapshotTo) }

// SnapshotTo appends Snapshot's bytes to e: every pipeline, ORAM and
// device below encodes straight into e's buffer, sized once up front.
func (c *Controller) SnapshotTo(e *persist.Encoder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inRound || c.staged != nil {
		// A staged round counts as open: its plan has consumed RNG state a
		// snapshot would otherwise capture mid-consumption.
		return ErrRoundOpen
	}
	return c.eng.SnapshotTo(e, func(size int, section func(i int) error) error {
		return writeSnapshot(e, c.cfg, c.round, size, section)
	})
}

// Restore replaces the controller's dynamic state with a snapshot taken
// from a controller built with an identical Config.
func (c *Controller) Restore(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inRound || c.staged != nil {
		return ErrRoundOpen
	}
	round, sections, err := SplitSnapshot(c.cfg, b)
	if err != nil {
		return err
	}
	if err := c.eng.Restore(sections); err != nil {
		return err
	}
	c.round = round
	return nil
}

// writeSnapshot is the one writer of a controller snapshot of cfg at
// round, from sections that section(i) appends for local shard i (size
// bounds their bytes). With one shard the snapshot is its single
// section as is: a v1 pipeline blob, whose header carries the round.
// With several it is the v2 envelope around the engine container, in
// one buffer grown once. SplitSnapshot is its reader.
func writeSnapshot(e *persist.Encoder, cfg Config, round uint64, size int, section func(i int) error) error {
	if cfg.Shards <= 1 {
		return section(0)
	}
	e.Grow(envelopeHeader + shard.ContainerOverhead(cfg.Shards) + size)
	e.U8(shardedSnapshotVersion)
	e.U32(uint32(cfg.Shards))
	e.U64(cfg.Digest())
	e.U64(round)
	m := e.BeginBytes()
	if err := shard.EncodeContainer(e, containerGeometry(cfg), section); err != nil {
		return err
	}
	e.EndBytes(m)
	return nil
}

// SplitSnapshot decodes a snapshot of a controller built from the
// global config cfg into its round and its per-shard sections by global
// index — the sections SnapshotShard exports and RestoreShard replays.
// With one shard the snapshot is its own single section, a v1 pipeline
// blob whose header carries the round; with several it is the v2
// envelope around the engine container. Headers are checked against cfg
// (version, shard count, config digest, geometry); each section is
// verified by the controller that restores it.
func SplitSnapshot(cfg Config, b []byte) (round uint64, sections [][]byte, err error) {
	cfg.setDefaults()
	d := persist.NewDecoder(b)
	if cfg.Shards <= 1 {
		round, err = decodePipelineHeader(d, cfg)
	} else {
		// The shard count is checked before the digest so a mismatched
		// partitioning gets the specific error, not the generic one.
		if v := d.U8(); d.Err() == nil && v != shardedSnapshotVersion {
			if v == controllerSnapshotVersion {
				return 0, nil, fmt.Errorf("fedora: snapshot was taken by an unsharded controller, this one is configured with %d shards", cfg.Shards)
			}
			return 0, nil, fmt.Errorf("fedora: unsupported controller snapshot version %d", v)
		}
		if shards := int(d.U32()); d.Err() == nil && shards != cfg.Shards {
			return 0, nil, fmt.Errorf("fedora: snapshot was taken with %d shards, controller is configured with %d — restore requires an identical shard count", shards, cfg.Shards)
		}
		if err = checkDigest(d, cfg); err == nil {
			round = d.U64()
			b = d.Bytes() // the engine container
		}
	}
	if err == nil && d.Err() != nil {
		err = fmt.Errorf("fedora: controller snapshot: %w", d.Err())
	}
	if err != nil {
		return 0, nil, err
	}
	if cfg.Shards <= 1 {
		return round, [][]byte{b}, nil
	}
	if sections, err = shard.DecodeContainer(b, containerGeometry(cfg)); err != nil {
		return 0, nil, err
	}
	return round, sections, nil
}

// AssembleSnapshot is SplitSnapshot's inverse: from the per-shard
// sections of cfg's shards it builds the snapshot a single-process
// controller built from cfg takes at round, byte for byte, in one
// presized buffer.
func AssembleSnapshot(cfg Config, round uint64, sections [][]byte) []byte {
	cfg.setDefaults()
	size := 0
	for _, blob := range sections {
		size += len(blob)
	}
	var e persist.Encoder
	// Appending sections that are already bytes cannot fail.
	_ = writeSnapshot(&e, cfg, round, size, func(i int) error {
		copy(e.Extend(len(sections[i])), sections[i])
		return nil
	})
	return e.Finish()
}

// containerGeometry is the engine-container geometry of a sharded cfg.
func containerGeometry(cfg Config) shard.Config {
	return shard.Config{Shards: cfg.Shards, NumRows: cfg.NumRows, Base: cfg.ShardBase}
}

// envelopeHeader is the v2 envelope's size around its engine container:
// version, shard count, config digest, round and the length prefix.
const envelopeHeader = 1 + 4 + 8 + 8 + 8

// decodePipelineHeader reads a v1 pipeline blob's header — version,
// config digest, round — and checks it against cfg. A short read is
// left on d for the caller's d.Err().
func decodePipelineHeader(d *persist.Decoder, cfg Config) (round uint64, err error) {
	if v := d.U8(); d.Err() == nil && v != controllerSnapshotVersion {
		if v == shardedSnapshotVersion {
			return 0, errors.New("fedora: snapshot was taken by a sharded controller; configure the same Shards count to restore it")
		}
		return 0, fmt.Errorf("fedora: unsupported controller snapshot version %d", v)
	}
	if err := checkDigest(d, cfg); err != nil {
		return 0, err
	}
	return d.U64(), nil
}

// checkDigest reads a snapshot header's config digest and checks it
// against cfg's.
func checkDigest(d *persist.Decoder, cfg Config) error {
	if digest := d.U64(); d.Err() == nil && digest != cfg.Digest() {
		return fmt.Errorf("fedora: snapshot config digest %016x != controller %016x (configs differ)",
			digest, cfg.Digest())
	}
	return nil
}

// SnapshotSize implements shard.Partition.
func (p *pipeline) SnapshotSize() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotSize()
}

// snapshotSize bounds the bytes SnapshotTo appends: the fixed fields,
// RNG and accountant blobs and section prefixes (under 256 bytes), the
// selector's two tables, and every component's own bound. Caller holds
// p.mu.
func (p *pipeline) snapshotSize() int {
	n := 256 + 16*len(p.sel.requestCount) + 8*len(p.sel.readBefore) +
		p.scratch.SnapshotSize() + p.buf.SnapshotSize() + p.ssd.SnapshotSize() + p.dram.SnapshotSize()
	if p.engine != nil {
		n += p.engine.SnapshotSize()
	}
	if p.path != nil {
		return n + p.path.SnapshotSize()
	}
	return n + p.raw.SnapshotSize()
}

// SnapshotTo implements shard.Partition: the pipeline's full dynamic
// state as one v1 blob, each component encoding straight into its
// section. Any deferred write-back pass is applied first, so the bytes
// are those a synchronous run would produce at this round boundary.
func (p *pipeline) SnapshotTo(e *persist.Encoder) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != nil {
		return ErrRoundOpen
	}
	if err := p.drain(); err != nil {
		return err
	}

	e.Grow(p.snapshotSize())
	e.U8(controllerSnapshotVersion)
	e.U64(p.cfg.Digest())
	e.U64(p.round)
	e.Bytes(p.src.Snapshot())
	e.Bytes(p.selSrc.Snapshot())
	encodeSelector(e, p.sel)
	e.Bytes(p.acct.Snapshot())
	section := func(what string, snapshotTo func(*persist.Encoder) error) error {
		m := e.BeginBytes()
		if err := snapshotTo(e); err != nil {
			return fmt.Errorf("fedora: %s: %w", what, err)
		}
		e.EndBytes(m)
		return nil
	}
	if err := section("scratchpad", p.scratch.SnapshotTo); err != nil {
		return err
	}
	e.Bool(p.engine != nil)
	if p.engine != nil {
		if err := section("engine", p.engine.SnapshotTo); err != nil {
			return err
		}
	} else {
		e.Bytes(nil)
	}
	e.U8(uint8(p.cfg.Backend))
	var mainTo func(*persist.Encoder) error
	if p.path != nil {
		mainTo = p.path.SnapshotTo
	} else {
		mainTo = p.raw.SnapshotTo
	}
	if err := section("main oram", mainTo); err != nil {
		return err
	}
	if err := section("buffer oram", p.buf.SnapshotTo); err != nil {
		return err
	}
	if err := section("ssd device", p.ssd.SnapshotTo); err != nil {
		return err
	}
	return section("dram device", p.dram.SnapshotTo)
}

// Restore implements shard.Partition: it replaces the pipeline's dynamic
// state with a v1 blob from a pipeline built with an identical Config.
func (p *pipeline) Restore(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != nil {
		return ErrRoundOpen
	}
	p.evict.live = false // restored state supersedes any deferred pass

	d := persist.NewDecoder(b)
	round, err := decodePipelineHeader(d, p.cfg)
	if err != nil {
		return err
	}
	srcBlob := d.Bytes()
	selSrcBlob := d.Bytes()
	requestCount, readBefore, selErr := decodeSelector(d)
	if selErr != nil {
		return selErr
	}
	acctBlob := d.Bytes()
	scratchBlob := d.Bytes()
	hasEngine := d.Bool()
	engineBlob := d.Bytes()
	backend := d.U8()
	mainBlob := d.Bytes()
	bufBlob := d.Bytes()
	ssdBlob := d.Bytes()
	dramBlob := d.Bytes()
	if err := d.Err(); err != nil {
		return fmt.Errorf("fedora: controller snapshot: %w", err)
	}
	if Backend(backend) != p.cfg.Backend {
		return fmt.Errorf("fedora: snapshot backend %v != controller backend %v",
			Backend(backend), p.cfg.Backend)
	}
	if hasEngine != (p.engine != nil) {
		return fmt.Errorf("fedora: snapshot encryption (engine=%v) does not match controller", hasEngine)
	}

	if err := p.src.Restore(srcBlob); err != nil {
		return fmt.Errorf("fedora: rng: %w", err)
	}
	if err := p.selSrc.Restore(selSrcBlob); err != nil {
		return fmt.Errorf("fedora: selector rng: %w", err)
	}
	if err := p.acct.Restore(acctBlob); err != nil {
		return fmt.Errorf("fedora: accountant: %w", err)
	}
	if err := p.scratch.Restore(scratchBlob); err != nil {
		return fmt.Errorf("fedora: scratchpad: %w", err)
	}
	if p.engine != nil {
		if err := p.engine.Restore(engineBlob); err != nil {
			return fmt.Errorf("fedora: engine: %w", err)
		}
	}
	// Devices first (they hold the tree bytes the ORAMs index into),
	// then the ORAM metadata over them.
	if err := p.ssd.Restore(ssdBlob); err != nil {
		return fmt.Errorf("fedora: ssd device: %w", err)
	}
	if err := p.dram.Restore(dramBlob); err != nil {
		return fmt.Errorf("fedora: dram device: %w", err)
	}
	if p.path != nil {
		if err := p.path.Restore(mainBlob); err != nil {
			return fmt.Errorf("fedora: main oram: %w", err)
		}
	} else {
		if err := p.raw.Restore(mainBlob); err != nil {
			return fmt.Errorf("fedora: main oram: %w", err)
		}
	}
	if err := p.buf.Restore(bufBlob); err != nil {
		return fmt.Errorf("fedora: buffer oram: %w", err)
	}
	p.round = round
	p.sel.requestCount = requestCount
	p.sel.readBefore = readBefore
	return nil
}

// RecoverQuarantined restores every quarantined shard from its section
// of a sharded controller snapshot (the newest durable checkpoint) and
// returns the shard indices recovered. Healthy shards — and the
// controller round counter, which tracks the rounds the survivors kept
// serving — are untouched: only the quarantined shards' state is
// replaced, rolling them back to checkpoint time (the bounded data-loss
// window ARCHITECTURE.md's degradation matrix documents). It requires a
// quiesced controller and a snapshot with matching geometry and config
// digest, and returns (nil, nil) when nothing is quarantined.
func (c *Controller) RecoverQuarantined(b []byte) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inRound || c.staged != nil {
		return nil, ErrRoundOpen
	}
	// The snapshot round is NOT restored: survivors advanced past it.
	_, sections, err := SplitSnapshot(c.cfg, b)
	if err != nil {
		return nil, err
	}
	return c.eng.Recover(sections)
}

// encodeSelector writes the selector's cross-round metadata (sorted for
// deterministic encoding). Its RNG is serialized separately as selSrc.
func encodeSelector(e *persist.Encoder, s *selector) {
	ids := make([]uint64, 0, len(s.requestCount))
	for id := range s.requestCount {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		e.U64(id)
		e.U64(s.requestCount[id])
	}
	ids = ids[:0]
	for id := range s.readBefore {
		if s.readBefore[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		e.U64(id)
	}
}

func decodeSelector(d *persist.Decoder) (map[uint64]uint64, map[uint64]bool, error) {
	nReq := d.U64()
	requestCount := make(map[uint64]uint64, nReq)
	for i := uint64(0); i < nReq && d.Err() == nil; i++ {
		id := d.U64()
		requestCount[id] = d.U64()
	}
	nRead := d.U64()
	readBefore := make(map[uint64]bool, nRead)
	for i := uint64(0); i < nRead && d.Err() == nil; i++ {
		readBefore[d.U64()] = true
	}
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("fedora: selector snapshot: %w", err)
	}
	return requestCount, readBefore, nil
}
