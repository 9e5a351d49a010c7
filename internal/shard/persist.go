package shard

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/persist"
)

// An engine snapshot is a persist.Checkpoint container: one NAMED
// section per partition plus a meta section pinning the shard geometry
// (EncodeContainer writes it, DecodeContainer reads it). Restoring a
// snapshot taken at a different shard count is rejected: the per-shard
// ORAM trees, position maps and RNG streams are only meaningful under
// the exact partition they were written with. Sections are named by
// GLOBAL shard index (Config.Base + local index) so a cluster member's
// sections are interchangeable with the matching sections of a
// single-process engine snapshot. The engine itself moves partitions
// in and out of sections (SnapshotTo, Restore, RestoreShard, Recover);
// what frames them is its owner's format.

// engineSnapshotVersion stamps the meta section. Version 2 added the
// Base field for slice engines (cluster members).
const engineSnapshotVersion = 2

// metaSection / SectionName name the container sections.
const metaSection = "shard/meta"

// SectionName returns the checkpoint-section name of shard i.
func SectionName(i int) string { return fmt.Sprintf("shard/%04d", i) }

// ErrRoundOpen is returned by SnapshotTo, SnapshotShard and the restore
// paths while a round is in flight.
var ErrRoundOpen = errors.New("shard: cannot snapshot mid-round")

// EncodeContainer appends an engine snapshot container for the geometry
// in cfg (Shards, NumRows, Base) to enc: the checkpoint stream's magic,
// the meta section pinning the geometry, one section per shard — named
// by its GLOBAL index, with the payload section(i) appends for local
// index i — and the trailer. It is the container's one writer: fedora
// frames a sharded controller's snapshot with it, whether the sections
// stream from the engine's partitions or from cluster members.
func EncodeContainer(enc *persist.Encoder, cfg Config, section func(i int) error) error {
	cp := persist.BeginCheckpoint(enc, 0)
	cp.BeginSection(metaSection)
	enc.U8(engineSnapshotVersion)
	enc.U32(uint32(cfg.Shards))
	enc.U64(cfg.NumRows)
	enc.U32(uint32(cfg.Base))
	cp.EndSection()
	for i := 0; i < cfg.Shards; i++ {
		cp.BeginSection(SectionName(cfg.Base + i))
		if err := section(i); err != nil {
			return fmt.Errorf("shard %d: %w", cfg.Base+i, err)
		}
		cp.EndSection()
	}
	cp.Close()
	return nil
}

// DecodeContainer is EncodeContainer's one reader: it parses an engine
// snapshot container, verifies its meta section against the geometry in
// cfg, and returns the shard sections by local index. Nothing is
// returned unless every section is present, so a caller can check the
// whole snapshot before touching any partition.
func DecodeContainer(b []byte, cfg Config) ([][]byte, error) {
	cp, err := persist.DecodeCheckpoint(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("shard: engine snapshot: %w", err)
	}
	meta, err := cp.Section(metaSection)
	if err != nil {
		return nil, fmt.Errorf("shard: engine snapshot: %w", err)
	}
	d := persist.NewDecoder(meta)
	version := d.U8()
	shards := int(d.U32())
	numRows := d.U64()
	base := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: engine snapshot meta: %w", err)
	}
	switch {
	case version != engineSnapshotVersion:
		return nil, fmt.Errorf("shard: unsupported engine snapshot version %d", version)
	case shards != cfg.Shards:
		return nil, fmt.Errorf("shard: snapshot was taken with %d shards, engine is configured with %d — restore requires an identical shard count", shards, cfg.Shards)
	case numRows != cfg.NumRows:
		return nil, fmt.Errorf("shard: snapshot covers %d rows, engine is configured with %d", numRows, cfg.NumRows)
	case base != cfg.Base:
		return nil, fmt.Errorf("shard: snapshot covers shard slice [%d,%d), engine serves [%d,%d)",
			base, base+shards, cfg.Base, cfg.Base+cfg.Shards)
	}
	sections := make([][]byte, cfg.Shards)
	for i := range sections {
		if sections[i], err = cp.Section(SectionName(cfg.Base + i)); err != nil {
			return nil, fmt.Errorf("shard: engine snapshot: %w", err)
		}
	}
	return sections, nil
}

// ContainerOverhead bounds the bytes a container adds around the
// payloads of n shard sections: under 64 bytes of frame each, the magic,
// meta and trailer frames included.
func ContainerOverhead(n int) int { return 64 * (n + 4) }

// SnapshotTo has write encode every partition into enc, once no round
// is in flight: size bounds the partitions' bytes, and section(i)
// appends local partition i's state. write frames the sections — in an
// engine container (EncodeContainer), or any format its owner defines.
func (e *Engine) SnapshotTo(enc *persist.Encoder, write func(size int, section func(i int) error) error) error {
	if err := e.quiesced(); err != nil {
		return err
	}
	size := 0
	for _, p := range e.parts {
		size += p.SnapshotSize()
	}
	return write(size, func(i int) error { return e.parts[i].SnapshotTo(enc) })
}

// Restore replaces every partition's state from its section, by local
// index as DecodeContainer returns them, and returns every quarantined
// shard to service.
func (e *Engine) Restore(sections [][]byte) error {
	if err := e.quiesced(); err != nil {
		return err
	}
	if len(sections) != e.cfg.Shards {
		return fmt.Errorf("shard: %d sections for %d shards", len(sections), e.cfg.Shards)
	}
	for i, blob := range sections {
		if err := e.restorePart(i, blob); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotShard serializes one partition, addressed by GLOBAL shard
// index. The blob is exactly the section SnapshotShard's shard would
// occupy in a full engine snapshot, so it can be replayed by
// RestoreShard on any engine (or slice engine) that owns the shard.
func (e *Engine) SnapshotShard(global int) ([]byte, error) {
	local, err := e.local(global)
	if err != nil {
		return nil, err
	}
	if err := e.quiesced(); err != nil {
		return nil, err
	}
	blob, err := persist.Build(e.parts[local].SnapshotTo)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", global, err)
	}
	return blob, nil
}

// RestoreShard replays one shard's section, addressed by GLOBAL shard
// index, onto a quiesced engine (see restorePart). This is the
// migration primitive: export a section from wherever the shard last
// lived and replay it onto the engine that owns the shard now.
func (e *Engine) RestoreShard(global int, blob []byte) error {
	local, err := e.local(global)
	if err != nil {
		return err
	}
	if err := e.quiesced(); err != nil {
		return err
	}
	return e.restorePart(local, blob)
}

// restorePart is the one way a partition's state is replaced: its
// half-open round state (if any) is aborted, the section is replayed,
// and a quarantined shard returns to service, counted as a recovery.
// Restore, Recover and RestoreShard all go through it.
func (e *Engine) restorePart(local int, blob []byte) error {
	e.parts[local].Abort()
	if err := e.parts[local].Restore(blob); err != nil {
		return fmt.Errorf("shard %d: %w", e.cfg.Base+local, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quarantined[local] {
		e.quarantined[local] = false
		e.causes[local] = nil
		e.recoveries++
	}
	return nil
}

// local maps a GLOBAL shard index to the engine's local one.
func (e *Engine) local(global int) (int, error) {
	local := global - e.cfg.Base
	if local < 0 || local >= e.cfg.Shards {
		return 0, fmt.Errorf("shard: shard %d outside engine slice [%d,%d)",
			global, e.cfg.Base, e.cfg.Base+e.cfg.Shards)
	}
	return local, nil
}

// quiesced returns ErrRoundOpen while a round is in flight.
func (e *Engine) quiesced() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inRound {
		return ErrRoundOpen
	}
	return nil
}
