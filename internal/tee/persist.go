package tee

import (
	"fmt"
	"sort"

	"repro/internal/persist"
)

// The TEE's durable state is small by design (Sec 5.2): the scratchpad
// reservations (which components own the on-chip SRAM) and the engine's
// crypto-work counters. The per-group write counters themselves are ORAM
// state and are serialized by the ORAM snapshots; the ROOT counter — the
// single scratchpad-resident value every bucket counter derives from —
// is the RAW ORAM's eviction count, captured in its snapshot.

const (
	scratchpadSnapshotVersion = 1
	engineSnapshotVersion     = 1
)

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (s *Scratchpad) Snapshot() ([]byte, error) { return persist.Build(s.SnapshotTo) }

// SnapshotSize is the number of bytes SnapshotTo appends.
func (s *Scratchpad) SnapshotSize() int {
	n := 1 + 8 + 8
	for name := range s.regions {
		n += 8 + len(name) + 8
	}
	return n
}

// SnapshotTo appends the reservation table (sorted by name).
func (s *Scratchpad) SnapshotTo(e *persist.Encoder) error {
	e.Grow(s.SnapshotSize())
	e.U8(scratchpadSnapshotVersion)
	e.I64(int64(s.size))
	names := make([]string, 0, len(s.regions))
	for name := range s.regions {
		names = append(names, name)
	}
	sort.Strings(names)
	e.U64(uint64(len(names)))
	for _, name := range names {
		e.String(name)
		e.I64(int64(s.regions[name]))
	}
	return nil
}

// Restore replaces the reservation table from a same-size snapshot.
func (s *Scratchpad) Restore(b []byte) error {
	d := persist.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != scratchpadSnapshotVersion {
		return fmt.Errorf("tee: unsupported scratchpad snapshot version %d", v)
	}
	size := int(d.I64())
	if d.Err() == nil && size != s.size {
		return fmt.Errorf("tee: snapshot scratchpad size %d != %d", size, s.size)
	}
	n := d.U64()
	regions := make(map[string]int, n)
	reserved := 0
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		name := d.String()
		bytes := int(d.I64())
		if d.Err() == nil {
			if bytes < 0 || reserved+bytes > size {
				return fmt.Errorf("tee: snapshot reservation %q (%d bytes) exceeds scratchpad", name, bytes)
			}
			regions[name] = bytes
			reserved += bytes
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("tee: scratchpad snapshot: %w", err)
	}
	s.regions = regions
	s.reserved = reserved
	return nil
}

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (e *Engine) Snapshot() ([]byte, error) { return persist.Build(e.SnapshotTo) }

// SnapshotSize is the number of bytes SnapshotTo appends.
func (e *Engine) SnapshotSize() int { return 1 + 5*8 }

// SnapshotTo appends the crypto-work counters. The keys are derived
// from configuration at construction and are deliberately NOT written to
// checkpoints.
func (e *Engine) SnapshotTo(enc *persist.Encoder) error {
	enc.Grow(e.SnapshotSize())
	enc.U8(engineSnapshotVersion)
	enc.U64(e.stats.BytesSealed)
	enc.U64(e.stats.BytesOpened)
	enc.U64(e.stats.GroupsSealed)
	enc.U64(e.stats.GroupsOpened)
	enc.U64(e.stats.AuthFailures)
	return nil
}

// Restore replaces the counters from a snapshot.
func (e *Engine) Restore(b []byte) error {
	d := persist.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != engineSnapshotVersion {
		return fmt.Errorf("tee: unsupported engine snapshot version %d", v)
	}
	var st EngineStats
	st.BytesSealed = d.U64()
	st.BytesOpened = d.U64()
	st.GroupsSealed = d.U64()
	st.GroupsOpened = d.U64()
	st.AuthFailures = d.U64()
	if err := d.Err(); err != nil {
		return fmt.Errorf("tee: engine snapshot: %w", err)
	}
	e.stats = st
	return nil
}
