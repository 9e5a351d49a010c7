package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/persist"
)

// pageAlign is the alignment unit for file I/O: offsets, lengths and
// (under O_DIRECT) buffer addresses are aligned to it. 4096 matches NVMe
// logical blocks, the ORAM bucket page, and the snapshot page.
const pageAlign = 4096

// ErrClosed is returned by every operation on a closed File.
var ErrClosed = errors.New("storage: device is closed")

// File is a device.Storage backed by a real file: page-aligned preads
// and pwrites against a preallocated (sparse) backing file, O_DIRECT
// when requested and supported, an fsync policy bounding the dirty-page
// window, and measured per-op latency histograms.
//
// Timing semantics differ from the simulator on purpose: ReadAt/WriteAt
// return the MEASURED wall-clock duration of the real I/O (including
// any fsync the policy charges to the op), while Charge/ChargeN — which
// move no data — still return modelled durations from the profile, so
// phantom-mode accounting stays meaningful. Stats.BusyTime therefore
// accumulates real time on the data path.
//
// Concurrency matches device.Sim: a mutex serializes operations, so a
// File is safe for concurrent use even though the FEDORA controller is
// logically single-writer.
type File struct {
	mu       sync.Mutex
	f        *os.File
	name     string // controller device name ("ssd", "shard3/ssd")
	path     string
	profile  device.Profile
	capacity uint64
	spec     Spec
	direct   bool // O_DIRECT actually active (request may fall back)
	closed   bool

	stats   device.Stats
	written map[uint64]struct{} // snapshot pages ever written (for Snapshot)
	dirty   int                 // page writes since the last fsync
	fsyncs  uint64

	readHist, writeHist hist

	scratch []byte // page-aligned reusable buffer for the aligned-span path
}

// OpenFile creates (or truncates) the backing file at path and returns a
// file-backed device of the given profile and capacity. The file starts
// zeroed regardless of prior contents: the backing file is working
// state — recovery repopulates it through Restore from the checkpoint
// layer, exactly as a fresh simulator would be. The file is preallocated
// sparsely (Truncate), so disk is consumed only for pages written.
func OpenFile(name, path string, p device.Profile, capacity uint64, spec Spec) (*File, error) {
	if p.PageSize <= 0 {
		return nil, errors.New("storage: profile PageSize must be positive")
	}
	if spec.MaxDirtyPages == 0 {
		spec.MaxDirtyPages = DefaultMaxDirtyPages
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var (
		f      *os.File
		err    error
		direct bool
	)
	if spec.Direct && directSupported {
		// Try O_DIRECT first; filesystems without it (tmpfs) reject the
		// open with EINVAL, and we fall back to buffered I/O below.
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|directFlag(), 0o644)
		direct = err == nil
	}
	if f == nil {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: open %s: %w", path, err)
		}
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncate %s: %w", path, err)
	}
	if err := f.Truncate(int64(alignUp(capacity))); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: preallocate %s to %d bytes: %w", path, capacity, err)
	}
	return &File{
		f: f, name: name, path: path, profile: p, capacity: capacity,
		spec: spec, direct: direct, written: make(map[uint64]struct{}),
	}, nil
}

// alignUp rounds n up to a multiple of pageAlign.
func alignUp(n uint64) uint64 { return (n + pageAlign - 1) / pageAlign * pageAlign }

// Capacity implements Device.
func (fd *File) Capacity() uint64 { return fd.capacity }

// PageSize implements Device.
func (fd *File) PageSize() int { return fd.profile.PageSize }

// Profile implements Storage.
func (fd *File) Profile() device.Profile { return fd.profile }

// Name returns the controller device name this File was opened under.
func (fd *File) Name() string { return fd.name }

// Path returns the backing file path.
func (fd *File) Path() string { return fd.path }

// Direct reports whether O_DIRECT is actually active.
func (fd *File) Direct() bool {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.direct
}

func (fd *File) checkRange(addr uint64, n int) error {
	if fd.closed {
		return ErrClosed
	}
	if n < 0 {
		return fmt.Errorf("storage %s: negative length %d", fd.name, n)
	}
	if addr+uint64(n) > fd.capacity {
		return fmt.Errorf("storage %s: access [%d, %d) exceeds capacity %d",
			fd.name, addr, addr+uint64(n), fd.capacity)
	}
	return nil
}

// span returns the page-aligned byte range covering [addr, addr+n).
func span(addr uint64, n int) (start uint64, length int) {
	start = addr / pageAlign * pageAlign
	end := alignUp(addr + uint64(n))
	return start, int(end - start)
}

// alignedScratch returns a page-aligned buffer of at least n bytes
// (required by O_DIRECT, harmless otherwise). Caller holds fd.mu.
func (fd *File) alignedScratch(n int) []byte {
	if cap(fd.scratch) < n+pageAlign {
		fd.scratch = make([]byte, n+2*pageAlign)
	}
	b := fd.scratch[:cap(fd.scratch)]
	off := int(bufAddr(b) & (pageAlign - 1))
	if off != 0 {
		b = b[pageAlign-off:]
	}
	return b[:n]
}

// pread fills p from the aligned span covering [addr, addr+len(p)).
// Caller holds fd.mu. A read past the file's real end (e.g. the backing
// file was truncated externally) is a short read and fails loudly.
func (fd *File) pread(addr uint64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	start, length := span(addr, len(p))
	buf := fd.alignedScratch(length)
	if n, err := fd.f.ReadAt(buf, int64(start)); n != length {
		return fmt.Errorf("storage %s: short read [%d,%d): got %d of %d bytes: %w",
			fd.name, start, start+uint64(length), n, length, err)
	}
	copy(p, buf[addr-start:])
	return nil
}

// preadPages fills p, whole pages from a page-aligned addr, for the
// snapshot: straight from the file into p, which only O_DIRECT (aligned
// user memory) forbids. Caller holds fd.mu.
func (fd *File) preadPages(addr uint64, p []byte) error {
	if fd.direct {
		return fd.pread(addr, p)
	}
	if n, err := fd.f.ReadAt(p, int64(addr)); n != len(p) {
		return fmt.Errorf("storage %s: short read [%d,%d): got %d of %d bytes: %w",
			fd.name, addr, addr+uint64(len(p)), n, len(p), err)
	}
	return nil
}

// pwrite stores p at addr via the aligned span, read-modify-writing the
// edge pages when the access is not page-aligned. Returns the number of
// pageAlign pages written. Caller holds fd.mu.
func (fd *File) pwrite(addr uint64, p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	start, length := span(addr, len(p))
	buf := fd.alignedScratch(length)
	aligned := addr == start && length == len(p)
	if !aligned {
		// RMW: fetch the covering span so the bytes around p survive.
		if n, err := fd.f.ReadAt(buf, int64(start)); n != length {
			return 0, fmt.Errorf("storage %s: rmw read [%d,%d): got %d of %d bytes: %w",
				fd.name, start, start+uint64(length), n, length, err)
		}
	}
	copy(buf[addr-start:], p)
	if n, err := fd.f.WriteAt(buf, int64(start)); n != length {
		return 0, fmt.Errorf("storage %s: short write [%d,%d): wrote %d of %d bytes: %w",
			fd.name, start, start+uint64(length), n, length, err)
	}
	pages := length / pageAlign
	for pg := start / pageAlign; pg < start/pageAlign+uint64(pages); pg++ {
		fd.written[pg] = struct{}{}
	}
	return pages, nil
}

// afterWrite applies the fsync policy; the flush cost (if any) belongs
// to the triggering write and is included in its measured duration.
// Caller holds fd.mu.
func (fd *File) afterWrite(pages int) error {
	switch fd.spec.Fsync {
	case FsyncAlways:
		return fd.syncLocked()
	case FsyncBatched:
		fd.dirty += pages
		if fd.dirty >= fd.spec.MaxDirtyPages {
			return fd.syncLocked()
		}
	}
	return nil
}

func (fd *File) syncLocked() error {
	if err := fd.f.Sync(); err != nil {
		return fmt.Errorf("storage %s: fsync: %w", fd.name, err)
	}
	fd.fsyncs++
	fd.dirty = 0
	return nil
}

// Sync flushes the backing file (a durability barrier callers may issue
// at round or checkpoint boundaries regardless of policy).
func (fd *File) Sync() error {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.closed {
		return ErrClosed
	}
	return fd.syncLocked()
}

// ReadAt implements Device: a real pread, returning measured duration.
func (fd *File) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if err := fd.checkRange(addr, len(p)); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := fd.pread(addr, p); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	n := fd.profile.RoundUp(len(p))
	fd.stats.Reads++
	fd.stats.BytesRead += uint64(n)
	fd.stats.BusyTime += elapsed
	fd.readHist.observe(elapsed)
	return elapsed, nil
}

// WriteAt implements Device: a real pwrite (plus any policy fsync),
// returning measured duration.
func (fd *File) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if err := fd.checkRange(addr, len(p)); err != nil {
		return 0, err
	}
	start := time.Now()
	pages, err := fd.pwrite(addr, p)
	if err != nil {
		return 0, err
	}
	if err := fd.afterWrite(pages); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	n := fd.profile.RoundUp(len(p))
	fd.stats.Writes++
	fd.stats.BytesWritten += uint64(n)
	fd.stats.BusyTime += elapsed
	fd.writeHist.observe(elapsed)
	return elapsed, nil
}

// PeekAt implements Device: a read that bypasses Stats accounting (the
// ORAMs account via Charge and move data via Peek/Poke, keeping phantom
// and functional traffic identical). The real I/O is still measured into
// the latency histogram — on the file backend this IS the data path.
func (fd *File) PeekAt(addr uint64, p []byte) error {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if err := fd.checkRange(addr, len(p)); err != nil {
		return err
	}
	start := time.Now()
	if err := fd.pread(addr, p); err != nil {
		return err
	}
	fd.readHist.observe(time.Since(start))
	return nil
}

// PokeAt implements Device: a write that bypasses Stats accounting but
// still obeys the fsync policy and feeds the latency histogram.
func (fd *File) PokeAt(addr uint64, p []byte) error {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if err := fd.checkRange(addr, len(p)); err != nil {
		return err
	}
	start := time.Now()
	pages, err := fd.pwrite(addr, p)
	if err != nil {
		return err
	}
	if err := fd.afterWrite(pages); err != nil {
		return err
	}
	fd.writeHist.observe(time.Since(start))
	return nil
}

// Charge implements Device: accounting-only operations move no data, so
// the duration is modelled from the profile exactly as the simulator
// models it (phantom-mode runs over the file backend stay meaningful).
func (fd *File) Charge(op device.Op, addr uint64, n int) time.Duration {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.account(op, n, 1)
}

// ChargeN implements Device.
func (fd *File) ChargeN(op device.Op, n, count int) time.Duration {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if count <= 0 {
		return 0
	}
	return fd.account(op, n, count)
}

// account applies `count` modelled accesses of n bytes. Caller holds fd.mu.
func (fd *File) account(op device.Op, n, count int) time.Duration {
	n = fd.profile.RoundUp(n)
	total := fd.profile.OpTime(op, n) * time.Duration(count)
	if op == device.OpRead {
		fd.stats.Reads += uint64(count)
		fd.stats.BytesRead += uint64(n) * uint64(count)
	} else {
		fd.stats.Writes += uint64(count)
		fd.stats.BytesWritten += uint64(n) * uint64(count)
	}
	fd.stats.BusyTime += total
	return total
}

// Stats implements Device.
func (fd *File) Stats() device.Stats {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.stats
}

// ResetStats implements Device (latency histograms reset too).
func (fd *File) ResetStats() {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	fd.stats = device.Stats{}
	fd.readHist = hist{}
	fd.writeHist = hist{}
}

// WearBytes implements Storage, mirroring the simulator's wear model.
func (fd *File) WearBytes() uint64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	waf := fd.profile.WriteAmplification
	if waf <= 0 {
		waf = 1
	}
	return uint64(float64(fd.stats.BytesWritten) * waf)
}

// Report summarizes the device's real-I/O telemetry.
func (fd *File) Report() Report {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return Report{
		Name: fd.name, Backend: KindFile.String(), Path: fd.path,
		Direct: fd.direct, Fsyncs: fd.fsyncs, DirtyPages: fd.dirty,
		Read: fd.readHist.summary(), Write: fd.writeHist.summary(),
	}
}

// Snapshot implements Storage: SnapshotTo's bytes as a blob of their own.
func (fd *File) Snapshot() ([]byte, error) { return persist.Build(fd.SnapshotTo) }

// SnapshotSize implements Storage (exact unless some written page is
// all zero).
func (fd *File) SnapshotSize() int {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return device.SnapshotSizeFor(fd.profile.Name, len(fd.written))
}

// snapshotRunPages caps how many adjacent pages one snapshot pread
// fetches: long enough that a dense tree image costs a few hundred
// syscalls, short enough that the O_DIRECT bounce buffer stays at 1 MiB.
const snapshotRunPages = 256

// SnapshotTo implements Storage in the shared device-snapshot wire
// format: it reads back every page ever written, in ascending order and
// one pread per run of adjacent pages, straight into the encoder, and
// keeps the non-zero ones, so a file-backend checkpoint restores onto a
// simulator and vice versa. Snapshot I/O is unaccounted (checkpointing
// is harness work, not modelled device traffic — matching the
// simulator's semantics).
func (fd *File) SnapshotTo(e *persist.Encoder) error {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.closed {
		return ErrClosed
	}
	pages := make([]uint64, 0, len(fd.written))
	for pg := range fd.written {
		pages = append(pages, pg)
	}
	slices.Sort(pages)
	e.Grow(device.SnapshotSizeFor(fd.profile.Name, len(pages)))
	w := device.BeginSnapshot(e, fd.profile.Name, fd.capacity, fd.stats)
	for len(pages) > 0 {
		n := 1
		for n < len(pages) && n < snapshotRunPages && pages[n] == pages[0]+uint64(n) {
			n++
		}
		err := w.Run(pages[0], n, func(dst []byte) error {
			return fd.preadPages(pages[0]*device.SnapshotPageSize, dst)
		})
		if err != nil {
			return err
		}
		pages = pages[n:]
	}
	w.End()
	return nil
}

// Restore implements Storage: the backing file is zeroed (re-sparsified)
// and the snapshot's pages written back, then flushed.
func (fd *File) Restore(b []byte) error {
	name, capacity, st, pages, err := device.DecodeSnapshot(b)
	if err != nil {
		return fmt.Errorf("storage %s: %w", fd.name, err)
	}

	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.closed {
		return ErrClosed
	}
	if name != fd.profile.Name {
		return fmt.Errorf("storage %s: snapshot is for profile %q, this device is %q", fd.name, name, fd.profile.Name)
	}
	if capacity != fd.capacity {
		return fmt.Errorf("storage %s: snapshot capacity %d != device capacity %d",
			fd.name, capacity, fd.capacity)
	}
	if err := fd.f.Truncate(0); err != nil {
		return fmt.Errorf("storage %s: restore truncate: %w", fd.name, err)
	}
	if err := fd.f.Truncate(int64(alignUp(fd.capacity))); err != nil {
		return fmt.Errorf("storage %s: restore preallocate: %w", fd.name, err)
	}
	fd.written = make(map[uint64]struct{}, len(pages))
	for pg, page := range pages {
		if _, err := fd.pwrite(pg*device.SnapshotPageSize, page); err != nil {
			return err
		}
	}
	if err := fd.syncLocked(); err != nil {
		return err
	}
	fd.stats = st
	fd.dirty = 0
	return nil
}

// Close implements Storage: flushes (unless FsyncNever) and closes the
// backing file. The file is left on disk for inspection; it holds
// working state only and is re-zeroed on the next OpenFile.
func (fd *File) Close() error {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.closed {
		return nil
	}
	fd.closed = true
	var syncErr error
	if fd.spec.Fsync != FsyncNever {
		syncErr = fd.f.Sync()
	}
	if err := fd.f.Close(); err != nil {
		return fmt.Errorf("storage %s: close: %w", fd.name, err)
	}
	if syncErr != nil {
		return fmt.Errorf("storage %s: close fsync: %w", fd.name, syncErr)
	}
	return nil
}
