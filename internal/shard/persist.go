package shard

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/persist"
)

// Engine.Snapshot/Restore serialize every partition as a NAMED section
// of a persist.Checkpoint container (the same CRC-framed format the
// durable checkpoint files use), plus a meta section pinning the shard
// geometry. Restoring a snapshot taken at a different shard count is
// rejected: the per-shard ORAM trees, position maps and RNG streams are
// only meaningful under the exact partition they were written with.
// Sections are named by GLOBAL shard index (Config.Base + local index)
// so a cluster member's sections are interchangeable with the matching
// sections of a single-process engine snapshot.

// engineSnapshotVersion stamps the meta section. Version 2 added the
// Base field for slice engines (cluster members).
const engineSnapshotVersion = 2

// metaSection / SectionName name the container sections.
const metaSection = "shard/meta"

// SectionName returns the checkpoint-section name of shard i.
func SectionName(i int) string { return fmt.Sprintf("shard/%04d", i) }

// ErrRoundOpen is returned by Snapshot when a round is in flight.
var ErrRoundOpen = errors.New("shard: cannot snapshot mid-round")

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (e *Engine) Snapshot() ([]byte, error) { return persist.Build(e.SnapshotTo) }

// BeginContainer starts an engine snapshot container on enc — the
// checkpoint stream's magic and the meta section pinning the geometry —
// and returns the encoder the per-shard sections (SectionName) are then
// added to, in index order, before Close. The engine and the cluster
// coordinator, which assembles the same container from its members'
// sections, both build it here.
func BeginContainer(enc *persist.Encoder, shards int, numRows uint64, base int) *persist.CheckpointEncoder {
	cp := persist.BeginCheckpoint(enc, 0)
	cp.BeginSection(metaSection)
	enc.U8(engineSnapshotVersion)
	enc.U32(uint32(shards))
	enc.U64(numRows)
	enc.U32(uint32(base))
	cp.EndSection()
	return cp
}

// ContainerOverhead bounds the bytes a container adds around the
// payloads of n shard sections: under 64 bytes of frame each, the magic,
// meta and trailer frames included.
func ContainerOverhead(n int) int { return 64 * (n + 4) }

// SnapshotSize bounds the bytes SnapshotTo appends.
func (e *Engine) SnapshotSize() int {
	n := ContainerOverhead(len(e.parts))
	for _, p := range e.parts {
		n += p.SnapshotSize()
	}
	return n
}

// SnapshotTo appends the engine geometry and every partition, each
// partition encoding straight into its section of the container.
func (e *Engine) SnapshotTo(enc *persist.Encoder) error {
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return ErrRoundOpen
	}
	e.mu.Unlock()

	enc.Grow(e.SnapshotSize())
	cp := BeginContainer(enc, e.cfg.Shards, e.cfg.NumRows, e.cfg.Base)
	for i, p := range e.parts {
		cp.BeginSection(SectionName(e.cfg.Base + i))
		if err := p.SnapshotTo(enc); err != nil {
			return fmt.Errorf("shard %d: %w", e.cfg.Base+i, err)
		}
		cp.EndSection()
	}
	cp.Close()
	return nil
}

// Restore replaces every partition's state from a snapshot taken by an
// engine with identical geometry. A diverging shard count or row count
// is rejected before any partition is touched.
func (e *Engine) Restore(b []byte) error {
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return ErrRoundOpen
	}
	e.mu.Unlock()

	cp, err := persist.DecodeCheckpoint(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("shard: engine snapshot: %w", err)
	}
	meta, ok := cp.Get(metaSection)
	if !ok {
		return fmt.Errorf("shard: engine snapshot has no %q section", metaSection)
	}
	d := persist.NewDecoder(meta)
	version := d.U8()
	shards := int(d.U32())
	numRows := d.U64()
	base := int(d.U32())
	if err := d.Err(); err != nil {
		return fmt.Errorf("shard: engine snapshot meta: %w", err)
	}
	if version != engineSnapshotVersion {
		return fmt.Errorf("shard: unsupported engine snapshot version %d", version)
	}
	if shards != e.cfg.Shards {
		return fmt.Errorf("shard: snapshot was taken with %d shards, engine is configured with %d — restore requires an identical shard count", shards, e.cfg.Shards)
	}
	if numRows != e.cfg.NumRows {
		return fmt.Errorf("shard: snapshot covers %d rows, engine is configured with %d", numRows, e.cfg.NumRows)
	}
	if base != e.cfg.Base {
		return fmt.Errorf("shard: snapshot covers shard slice [%d,%d), engine serves [%d,%d)",
			base, base+shards, e.cfg.Base, e.cfg.Base+e.cfg.Shards)
	}
	for i, p := range e.parts {
		blob, ok := cp.Get(SectionName(e.cfg.Base + i))
		if !ok {
			return fmt.Errorf("shard: engine snapshot has no %q section", SectionName(e.cfg.Base+i))
		}
		if err := p.Restore(blob); err != nil {
			return fmt.Errorf("shard %d: %w", e.cfg.Base+i, err)
		}
	}
	return nil
}

// SnapshotShard serializes one partition, addressed by GLOBAL shard
// index. The blob is exactly the section SnapshotShard's shard would
// occupy in a full engine snapshot, so it can be replayed by
// RestoreShard on any engine (or slice engine) that owns the shard.
func (e *Engine) SnapshotShard(global int) ([]byte, error) {
	local := global - e.cfg.Base
	if local < 0 || local >= e.cfg.Shards {
		return nil, fmt.Errorf("shard: shard %d outside engine slice [%d,%d)",
			global, e.cfg.Base, e.cfg.Base+e.cfg.Shards)
	}
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return nil, ErrRoundOpen
	}
	e.mu.Unlock()
	blob, err := persist.Build(e.parts[local].SnapshotTo)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", global, err)
	}
	return blob, nil
}

// RestoreShard replays one shard's section, addressed by GLOBAL shard
// index, onto a quiesced engine. The partition's half-open round state
// (if any) is aborted first; if the shard was quarantined it is
// returned to service and counted as a recovery. This is the migration
// primitive: export a section from wherever the shard last lived and
// replay it onto the engine that owns the shard now.
func (e *Engine) RestoreShard(global int, blob []byte) error {
	local := global - e.cfg.Base
	if local < 0 || local >= e.cfg.Shards {
		return fmt.Errorf("shard: shard %d outside engine slice [%d,%d)",
			global, e.cfg.Base, e.cfg.Base+e.cfg.Shards)
	}
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return ErrRoundOpen
	}
	e.mu.Unlock()
	e.parts[local].Abort()
	if err := e.parts[local].Restore(blob); err != nil {
		return fmt.Errorf("shard %d: %w", global, err)
	}
	e.mu.Lock()
	if e.quarantined[local] {
		e.quarantined[local] = false
		e.causes[local] = nil
		e.recoveries++
	}
	e.mu.Unlock()
	return nil
}
