package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/persist"
)

// An engine snapshot is a persist.Checkpoint container: one NAMED
// section per partition plus a meta section pinning the shard geometry
// and carrying two opaque u64s its owner defines — a config digest and
// a round (EncodeContainer writes it in place, WriteContainer from
// streamed sections, DecodeContainer reads it). It is
// the one snapshot format of a fedora controller at every shard count,
// one shard included, and of a cluster coordinator. Restoring a
// snapshot taken at a different shard count is rejected: the per-shard
// ORAM trees, position maps and RNG streams are only meaningful under
// the exact partition they were written with. Sections are named by
// GLOBAL shard index (Config.Base + local index) so a cluster member's
// sections are interchangeable with the matching sections of a
// single-process engine snapshot. The engine itself moves partitions
// in and out of sections (SnapshotTo, Restore, RestoreShard, Recover).

// engineSnapshotVersion stamps the meta section. Version 2 added the
// Base field for slice engines (cluster members); version 3 the owner's
// digest and round, which made the container the controller's one
// snapshot format.
const engineSnapshotVersion = 3

// metaSection / SectionName name the container sections.
const metaSection = "shard/meta"

// SectionName returns the checkpoint-section name of shard i.
func SectionName(i int) string { return fmt.Sprintf("shard/%04d", i) }

// ErrRoundOpen is returned by SnapshotTo, SnapshotShard and the restore
// paths while a round is in flight.
var ErrRoundOpen = errors.New("shard: cannot snapshot mid-round")

// EncodeContainer appends an engine snapshot container for the geometry
// in cfg (Shards, NumRows, Base) to enc, in one buffer grown once: the
// checkpoint stream's magic, the meta section pinning the geometry and
// carrying the owner's digest and round, one section per shard — named
// by its GLOBAL index, with the payload section(i) appends for local
// index i; size bounds the payloads' bytes — and the trailer. It is the
// in-place writer, for an engine's partitions (SnapshotTo);
// WriteContainer writes the same bytes from sections streamed in.
func EncodeContainer(enc *persist.Encoder, cfg Config, digest, round uint64, size int, section func(i int) error) error {
	// Under 64 bytes of frame per shard section, the magic, meta and
	// trailer frames included.
	enc.Grow(64*(cfg.Shards+4) + size)
	cp := persist.BeginCheckpoint(enc, 0)
	cp.BeginSection(metaSection)
	putMeta(enc, cfg, digest, round)
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

// WriteContainer writes to w the container EncodeContainer appends, byte
// for byte, from sections of known size: section(i, w) writes local
// shard i's sizes[i] bytes, and each frame's CRC is computed as they
// pass. It is the streamed writer, for sections read from cluster
// members' replies, so no section is held whole; ContainerSize is the
// length of what it writes.
func WriteContainer(w io.Writer, cfg Config, digest, round uint64, sizes []int64, section func(i int, w io.Writer) error) error {
	if len(sizes) != cfg.Shards {
		return fmt.Errorf("shard: %d section sizes for %d shards", len(sizes), cfg.Shards)
	}
	fw, err := persist.NewCheckpointWriter(w, 0)
	if err != nil {
		return err
	}
	var meta persist.Encoder
	putMeta(&meta, cfg, digest, round)
	if err := fw.WriteFrame(metaSection, meta.Finish()); err != nil {
		return err
	}
	for i, size := range sizes {
		if err := fw.WriteFrameFrom(SectionName(cfg.Base+i), size, func(w io.Writer) error { return section(i, w) }); err != nil {
			return fmt.Errorf("shard %d: %w", cfg.Base+i, err)
		}
	}
	return fw.Close()
}

// ContainerSize is the length of the container for the geometry in cfg
// whose shard sections are sizes bytes long.
func ContainerSize(cfg Config, sizes []int64) int64 {
	frames := persist.FrameSize(metaSection, metaSize)
	for i, size := range sizes {
		frames += persist.FrameSize(SectionName(cfg.Base+i), size)
	}
	return persist.CheckpointSize(frames)
}

// metaSize is the length of the meta section putMeta writes.
const metaSize = 1 + 4 + 8 + 4 + 8 + 8

// putMeta appends the meta section's payload: the version, the
// geometry in cfg, and the owner's digest and round.
func putMeta(enc *persist.Encoder, cfg Config, digest, round uint64) {
	enc.U8(engineSnapshotVersion)
	enc.U32(uint32(cfg.Shards))
	enc.U64(cfg.NumRows)
	enc.U32(uint32(cfg.Base))
	enc.U64(digest)
	enc.U64(round)
}

// DecodeContainer is EncodeContainer's one reader: it parses an engine
// snapshot container, verifies its meta section against the geometry in
// cfg and the owner's digest — the shard count first, so a mismatched
// partitioning gets the specific error, then the digest — and returns
// the owner's round and the shard sections by local index. Nothing is
// returned unless every section is present, so a caller can check the
// whole snapshot before touching any partition.
func DecodeContainer(b []byte, cfg Config, digest uint64) (round uint64, sections [][]byte, err error) {
	cp, err := persist.DecodeCheckpoint(bytes.NewReader(b))
	if err != nil {
		return 0, nil, fmt.Errorf("shard: engine snapshot: %w", err)
	}
	meta, err := cp.Section(metaSection)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: engine snapshot: %w", err)
	}
	d := persist.NewDecoder(meta)
	if version := d.U8(); d.Err() == nil && version != engineSnapshotVersion {
		if version == 2 {
			return 0, nil, errors.New("shard: retired version-2 engine snapshot meta (no owner digest or round); snapshots from before the one container format do not restore")
		}
		return 0, nil, fmt.Errorf("shard: unsupported engine snapshot version %d", version)
	}
	shards := int(d.U32())
	numRows := d.U64()
	base := int(d.U32())
	owner := d.U64()
	round = d.U64()
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("shard: engine snapshot meta: %w", err)
	}
	switch {
	case shards != cfg.Shards:
		return 0, nil, fmt.Errorf("shard: snapshot was taken with %d shards, engine is configured with %d — restore requires an identical shard count", shards, cfg.Shards)
	case owner != digest:
		return 0, nil, fmt.Errorf("shard: snapshot config digest %016x != %016x (configs differ)", owner, digest)
	case numRows != cfg.NumRows:
		return 0, nil, fmt.Errorf("shard: snapshot covers %d rows, engine is configured with %d", numRows, cfg.NumRows)
	case base != cfg.Base:
		return 0, nil, fmt.Errorf("shard: snapshot covers shard slice [%d,%d), engine serves [%d,%d)",
			base, base+shards, cfg.Base, cfg.Base+cfg.Shards)
	}
	sections = make([][]byte, cfg.Shards)
	for i := range sections {
		if sections[i], err = cp.Section(SectionName(cfg.Base + i)); err != nil {
			return 0, nil, fmt.Errorf("shard: engine snapshot: %w", err)
		}
	}
	return round, sections, nil
}

// SnapshotTo appends the engine container of every partition to enc,
// stamped with its owner's digest and round, once no round is in
// flight.
func (e *Engine) SnapshotTo(enc *persist.Encoder, digest, round uint64) error {
	if err := e.quiesced(); err != nil {
		return err
	}
	size := 0
	for _, p := range e.parts {
		size += p.SnapshotSize()
	}
	return EncodeContainer(enc, e.cfg, digest, round, size, func(i int) error { return e.parts[i].SnapshotTo(enc) })
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
