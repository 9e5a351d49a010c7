package device

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/paged"
	"repro/internal/persist"
)

// Snapshot/Restore make a storage device durable: its page store IS the
// ORAM's on-"disk" image (tree buckets live here), so checkpointing a
// controller means checkpointing its devices. Only non-zero pages are
// serialized — never-written and all-zero pages read back as zeros
// either way — so the snapshot size tracks the bytes the ORAM actually
// touched, not the provisioned capacity.
//
// The wire format is shared across Storage implementations (the Sim here
// and internal/storage's file-backed device): SnapshotWriter and
// DecodeSnapshot below are the single encoder/decoder pair, which is
// what makes a checkpoint taken over one backend restorable onto the
// other.

const simSnapshotVersion = 1

// SnapshotPageSize is the page granularity of the device-snapshot wire
// format. It equals the simulator's sparse-store granularity and is an
// implementation detail independent of the modelled Profile.PageSize.
const SnapshotPageSize = storePageSize

// snapshotRecord is one page's bytes on the wire: index, length prefix,
// contents.
const snapshotRecord = 8 + 8 + SnapshotPageSize

// SnapshotSizeFor bounds a device snapshot holding up to numPages pages.
func SnapshotSizeFor(profileName string, numPages int) int {
	return 1 + 8 + len(profileName) + 8 + 5*8 + 8 + numPages*snapshotRecord
}

// SnapshotWriter appends a device snapshot in the shared wire format to
// an Encoder: BeginSnapshot writes the counters, the pages follow in
// ascending index order, and End fills in how many were kept. All-zero
// pages are dropped — they read back as zeros either way.
type SnapshotWriter struct {
	e     *persist.Encoder
	count persist.Mark
	pages uint64
}

// BeginSnapshot starts a device snapshot on e.
func BeginSnapshot(e *persist.Encoder, profileName string, capacity uint64, st Stats) SnapshotWriter {
	e.U8(simSnapshotVersion)
	e.String(profileName)
	e.U64(capacity)
	e.U64(st.Reads)
	e.U64(st.Writes)
	e.U64(st.BytesRead)
	e.U64(st.BytesWritten)
	e.I64(int64(st.BusyTime))
	return SnapshotWriter{e: e, count: e.ReserveU64()}
}

// Page appends one page unless it is all zero.
func (w *SnapshotWriter) Page(idx uint64, page []byte) {
	if allZero(page) {
		return
	}
	w.e.U64(idx)
	w.e.Bytes(page)
	w.pages++
}

// Run appends the n adjacent pages starting at index first. read fills
// its argument with their n×SnapshotPageSize bytes; it is handed the
// tail of the encoder's own buffer, and the pages are then moved down
// into their records in place, so a backend that can fetch a run with
// one call copies nothing through a buffer of its own.
func (w *SnapshotWriter) Run(first uint64, n int, read func(dst []byte) error) error {
	base := w.e.Len()
	buf := w.e.Extend(n * snapshotRecord)
	// The run lands at the END of the reserved span: record t's page then
	// starts at or before where its source bytes sit (equal for the last
	// record of a run without zero pages), so moving ascending never
	// overwrites a page not yet moved.
	src := buf[n*(snapshotRecord-SnapshotPageSize):]
	if err := read(src); err != nil {
		w.e.Truncate(base)
		return err
	}
	out := 0
	for t := 0; t < n; t++ {
		page := src[t*SnapshotPageSize : (t+1)*SnapshotPageSize]
		if allZero(page) {
			continue
		}
		rec := buf[out : out+snapshotRecord]
		binary.LittleEndian.PutUint64(rec, first+uint64(t))
		binary.LittleEndian.PutUint64(rec[8:], SnapshotPageSize)
		copy(rec[16:], page)
		out += snapshotRecord
		w.pages++
	}
	w.e.Truncate(base + out)
	return nil
}

// End completes the snapshot.
func (w *SnapshotWriter) End() { w.e.SetU64(w.count, w.pages) }

// DecodeSnapshot parses the shared device-snapshot wire format. The
// returned pages are freshly allocated SnapshotPageSize buffers.
func DecodeSnapshot(b []byte) (profileName string, capacity uint64, st Stats, pages map[uint64][]byte, err error) {
	d := persist.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != simSnapshotVersion {
		return "", 0, Stats{}, nil, fmt.Errorf("device: unsupported snapshot version %d", v)
	}
	profileName = d.String()
	capacity = d.U64()
	st.Reads = d.U64()
	st.Writes = d.U64()
	st.BytesRead = d.U64()
	st.BytesWritten = d.U64()
	st.BusyTime = time.Duration(d.I64())
	n := d.U64()
	pages = make(map[uint64][]byte, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		idx := d.U64()
		page := d.Bytes()
		if len(page) != SnapshotPageSize {
			return "", 0, Stats{}, nil, fmt.Errorf("device: snapshot page %d has %d bytes, want %d",
				idx, len(page), SnapshotPageSize)
		}
		pages[idx] = page
	}
	if err := d.Err(); err != nil {
		return "", 0, Stats{}, nil, fmt.Errorf("device: snapshot: %w", err)
	}
	return profileName, capacity, st, pages, nil
}

// Snapshot returns SnapshotTo's bytes as a blob of their own.
func (s *Sim) Snapshot() ([]byte, error) { return persist.Build(s.SnapshotTo) }

// SnapshotSize bounds the bytes SnapshotTo appends (exact unless some
// resident page is all zero).
func (s *Sim) SnapshotSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SnapshotSizeFor(s.profile.Name, s.pages.Len())
}

// SnapshotTo appends the device contents and traffic counters, copying
// each non-zero page once, straight from the page store.
func (s *Sim) SnapshotTo(e *persist.Encoder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Grow(SnapshotSizeFor(s.profile.Name, s.pages.Len()))
	w := BeginSnapshot(e, s.profile.Name, s.capacity, s.stats)
	s.pages.Range(func(idx uint64, page *storePage) { // ascending: Range's order is the format's
		w.Page(idx, page[:])
	})
	w.End()
	return nil
}

// Restore replaces the device contents and counters with a snapshot.
// The device must have the same profile name and capacity it was
// snapshotted with (geometry is configuration, not state).
func (s *Sim) Restore(b []byte) error {
	name, capacity, st, pages, err := DecodeSnapshot(b)
	if err != nil {
		return fmt.Errorf("device %s: %w", s.profile.Name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if name != s.profile.Name {
		return fmt.Errorf("device: snapshot is for profile %q, this device is %q", name, s.profile.Name)
	}
	if capacity != s.capacity {
		return fmt.Errorf("device %s: snapshot capacity %d != device capacity %d",
			s.profile.Name, capacity, s.capacity)
	}
	s.pages = paged.Table[*storePage]{}
	for idx, page := range pages {
		s.pages.Set(idx, (*storePage)(page)) // DecodeSnapshot checked the length
	}
	s.stats = st
	return nil
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
