package device

import (
	"fmt"
	"slices"
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
// and internal/storage's file-backed device): EncodeSnapshot and
// DecodeSnapshot below are the single encoder/decoder pair, which is
// what makes a checkpoint taken over one backend restorable onto the
// other.

const simSnapshotVersion = 1

// SnapshotPageSize is the page granularity of the device-snapshot wire
// format. It equals the simulator's sparse-store granularity and is an
// implementation detail independent of the modelled Profile.PageSize.
const SnapshotPageSize = storePageSize

// EncodeSnapshot serializes device contents and counters in the shared
// device-snapshot wire format. pages maps page index -> SnapshotPageSize
// bytes; all-zero pages are elided, the rest are written in ascending
// index order so encoding is deterministic.
func EncodeSnapshot(profileName string, capacity uint64, st Stats, pages map[uint64][]byte) []byte {
	idxs := make([]uint64, 0, len(pages))
	for idx, page := range pages {
		if !allZero(page) {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	e := snapshotHeader(profileName, capacity, st, len(idxs))
	for _, idx := range idxs {
		e.U64(idx)
		e.Bytes(pages[idx])
	}
	return e.Finish()
}

// snapshotHeader starts a device snapshot that numPages (index, bytes)
// records follow.
func snapshotHeader(profileName string, capacity uint64, st Stats, numPages int) *persist.Encoder {
	e := new(persist.Encoder)
	e.U8(simSnapshotVersion)
	e.String(profileName)
	e.U64(capacity)
	e.U64(st.Reads)
	e.U64(st.Writes)
	e.U64(st.BytesRead)
	e.U64(st.BytesWritten)
	e.I64(int64(st.BusyTime))
	e.U64(uint64(numPages))
	return e
}

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

// Snapshot serializes the device contents and traffic counters.
func (s *Sim) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type entry struct {
		idx  uint64
		page *storePage
	}
	var live []entry // ascending: Range's order is the format's
	s.pages.Range(func(idx uint64, page *storePage) {
		if !allZero(page[:]) {
			live = append(live, entry{idx, page})
		}
	})
	e := snapshotHeader(s.profile.Name, s.capacity, s.stats, len(live))
	for _, en := range live {
		e.U64(en.idx)
		e.Bytes(en.page[:])
	}
	return e.Finish(), nil
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
