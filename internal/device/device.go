// Package device models the untrusted off-chip storage devices FEDORA
// places its data structures on: DRAM (buffer ORAM, VTree, stash, path
// buffer, position map) and an NVMe SSD (the main ORAM), per Sec 4 of the
// paper.
//
// Both devices are discrete-event simulators: every operation moves real
// bytes through a sparse page store AND returns a modelled duration.
// Performance results in the paper are ratios (lifetime improvement,
// latency overhead relative to a 2-minute FL round), which depend on the
// counts and sizes of accesses — quantities this model reproduces exactly
// — rather than on microarchitectural detail.
//
// The SSD is a block device: reads and writes are rounded up to whole
// pages (4 KB by default), which is why FEDORA sizes ORAM buckets in
// multiples of the page size (Sec 6.6). Written bytes are tracked for the
// wear/lifetime model (Sec 6.2: 5.4 PB may be written per TB of capacity).
//
// Key invariants: every operation both moves real bytes and advances the
// modelled clock/counters (accounting-only mode advances just the
// latter, by identical amounts); SSD accesses round up to whole pages;
// and contents are bit-faithful — a read returns exactly what was last
// written.
package device

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/paged"
	"repro/internal/persist"
)

// Op identifies the direction of an access for accounting purposes.
type Op int

const (
	// OpRead is a device read.
	OpRead Op = iota
	// OpWrite is a device write.
	OpWrite
)

// Stats aggregates the traffic a device has served since the last reset.
type Stats struct {
	Reads        uint64        // read operations (post page-rounding, in pages for SSD)
	Writes       uint64        // write operations
	BytesRead    uint64        // bytes transferred by reads (page-rounded)
	BytesWritten uint64        // bytes transferred by writes (page-rounded)
	BusyTime     time.Duration // modelled time the device spent serving ops
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.BusyTime += other.BusyTime
}

// Device is untrusted storage with modelled timing. The interface
// itself promises nothing about concurrency; what each implementation in
// the repository guarantees:
//
//   - Sim, Recorder, Faulty and fault.Injector serialize internally:
//     each guards its own state with a lock, so any number of goroutines
//     may share one (a wrapper over a device that does the same).
//   - storage.File serializes its methods too, except that a buffered,
//     page-aligned PeekAt takes no lock: it reads straight into the
//     caller's slice, so the main ORAM's split read runs one such read
//     per reader at once.
//
// The controller drives each device from one goroutine at a time, except
// for those concurrent split-read PeekAts, each issued by one reader's
// tree.Path.Read.
type Device interface {
	// ReadAt fills p with the bytes at [addr, addr+len(p)) and returns
	// the modelled duration of the access.
	ReadAt(addr uint64, p []byte) (time.Duration, error)
	// WriteAt stores p at [addr, addr+len(p)) and returns the modelled
	// duration of the access.
	WriteAt(addr uint64, p []byte) (time.Duration, error)
	// Charge accounts for an access of n bytes at addr without moving
	// data. ORAMs running in phantom (accounting-only) mode use this so
	// that production-scale experiments need not materialize terabytes.
	Charge(op Op, addr uint64, n int) time.Duration
	// ChargeN accounts `count` back-to-back accesses of n bytes each in
	// one call (a full ORAM path, say) and returns their total duration.
	ChargeN(op Op, n, count int) time.Duration
	// PeekAt and PokeAt move bytes WITHOUT accounting. They are simulator
	// plumbing for components that account traffic explicitly via Charge
	// (so that phantom and functional modes report identical stats); they
	// are not part of the modelled device surface.
	PeekAt(addr uint64, p []byte) error
	PokeAt(addr uint64, p []byte) error
	// Stats returns the accumulated traffic counters.
	Stats() Stats
	// ResetStats zeroes the counters (capacity and contents unaffected).
	ResetStats()
	// Capacity returns the device size in bytes.
	Capacity() uint64
	// PageSize returns the access granularity in bytes (1 for DRAM).
	PageSize() int
}

// Storage is a Device that can serve as the durable home of an ORAM: it
// additionally exposes its timing/geometry profile, flash-wear
// accounting, and whole-device Snapshot/Restore for the checkpoint
// layer. Both the discrete-event simulator (Sim, this package) and the
// real file-backed device (internal/storage.File) implement it; the
// fedora controller provisions its main device through this interface so
// backends are interchangeable. Snapshots use one wire format across
// implementations — a checkpoint taken over the simulator restores onto
// a file-backed device and vice versa.
type Storage interface {
	Device
	// Profile returns the device's timing/geometry profile (used for
	// accounting even when latencies are measured rather than modelled).
	Profile() Profile
	// WearBytes is the physical flash bytes consumed by the recorded
	// logical writes after write amplification (lifetime model input).
	WearBytes() uint64
	// Snapshot / Restore serialize the device contents and counters in
	// the shared device-snapshot wire format. SnapshotTo appends the same
	// bytes to an encoder its owner is building (SnapshotSize bounds how
	// many), so the pages are copied once, into the final buffer.
	Snapshot() ([]byte, error)
	SnapshotSize() int
	SnapshotTo(e *persist.Encoder) error
	Restore(b []byte) error
	// Close releases any OS resources (backing files). The simulator's
	// Close is a no-op; using a Storage after Close is an error for
	// implementations that hold file descriptors.
	Close() error
}

// Profile holds the timing/geometry constants of a simulated device.
type Profile struct {
	Name string
	// PageSize is the access granularity; reads/writes are rounded up to
	// multiples of it. 1 means byte-granular (DRAM model).
	PageSize int
	// ReadLatency / WriteLatency is the fixed per-command cost.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// ReadBandwidth / WriteBandwidth in bytes/second adds a size-
	// proportional term.
	ReadBandwidth  float64
	WriteBandwidth float64
	// ActivePower is the power draw, in watts, while serving an access.
	// DRAM additionally has capacity-proportional idle power, which the
	// cost model (internal/costmodel) accounts separately.
	ActivePower float64
	// CostPerGB is the hardware purchase cost in dollars per gigabyte.
	CostPerGB float64
	// QueueDepth models command-level parallelism: a stream of back-to-
	// back operations amortizes the fixed per-command latency by this
	// factor (NVMe devices serve many outstanding commands). 0/1 = fully
	// serial.
	QueueDepth int
	// EnduranceBytesPerTB is how many bytes may be written per TB of
	// capacity before wear-out (0 = unlimited, e.g. DRAM).
	EnduranceBytesPerTB float64
	// WriteAmplification is the flash-level bytes physically programmed
	// per logical byte written (0 = 1.0). ORAM bucket writes are whole
	// 4 KB pages, the access pattern the FTL handles with WAF ≈ 1; random
	// sub-page writes on other workloads would push this well above 1.
	WriteAmplification float64
}

// PM9A1SSD approximates the Samsung PM9A1 1 TB NVMe SSD used in the
// paper's evaluation (Sec 6.1): ~7 GB/s sequential read, ~5.2 GB/s
// sequential write, tens-of-microseconds command latency, 6.2 W active
// power (Samsung 980 PRO datasheet rating cited by the paper), $0.1/GB,
// and 5.4 PB written per TB endurance (Solidigm D7-P5620 figure cited in
// Sec 6.1).
var PM9A1SSD = Profile{
	Name:                "pm9a1-ssd",
	PageSize:            4096,
	ReadLatency:         70 * time.Microsecond,
	WriteLatency:        20 * time.Microsecond,
	ReadBandwidth:       7.0e9,
	WriteBandwidth:      5.2e9,
	ActivePower:         6.2,
	CostPerGB:           0.10,
	EnduranceBytesPerTB: 5.4e15,
	QueueDepth:          16,
}

// DDR5DRAM approximates a DDR5 DIMM: ~100 ns access latency, tens of
// GB/s of bandwidth, $3.15/GB (the paper's Sec 6.5 price), 375 mW/GB
// idle power (accounted by the cost model), no wear.
var DDR5DRAM = Profile{
	Name:           "ddr5-dram",
	PageSize:       1,
	ReadLatency:    100 * time.Nanosecond,
	WriteLatency:   100 * time.Nanosecond,
	ReadBandwidth:  25.6e9,
	WriteBandwidth: 25.6e9,
	ActivePower:    4.0,
	CostPerGB:      3.15,
}

// Sim is a simulated storage device with a sparse page store. Pages that
// were never written read back as zeros, so production-scale address
// spaces cost memory only for the pages actually touched.
type Sim struct {
	mu       sync.Mutex
	profile  Profile
	capacity uint64
	pages    paged.Table[*storePage] // by page index; nothing is sized from capacity
	stats    Stats
	// opTimes memoizes profile.OpTime for the last page-rounded size of a
	// read ([0]) and of a write ([1]): an ORAM moves one bucket size over
	// and over. The duration is a pure function of (op, size), so BusyTime
	// stays the same exact integer sum.
	opTimes [2]opTime
}

// opTime is one memoized Profile.OpTime result; ok marks it as set.
type opTime struct {
	n  int
	d  time.Duration
	ok bool
}

// storePage is one materialized page of the sparse backing store.
type storePage = [storePageSize]byte

// storePageSize is the granularity of the sparse backing store. It is an
// implementation detail independent of the modelled Profile.PageSize.
const storePageSize = 4096

// NewSim creates a device with the given profile and capacity in bytes.
func NewSim(p Profile, capacity uint64) *Sim {
	if p.PageSize <= 0 {
		panic("device: profile PageSize must be positive")
	}
	return &Sim{profile: p, capacity: capacity}
}

// NewSSD creates a PM9A1-profile SSD of the given capacity.
func NewSSD(capacity uint64) *Sim { return NewSim(PM9A1SSD, capacity) }

// NewDRAM creates a DDR5-profile DRAM of the given capacity.
func NewDRAM(capacity uint64) *Sim { return NewSim(DDR5DRAM, capacity) }

// Profile returns the device's timing profile.
func (s *Sim) Profile() Profile { return s.profile }

// Capacity implements Device.
func (s *Sim) Capacity() uint64 { return s.capacity }

// PageSize implements Device.
func (s *Sim) PageSize() int { return s.profile.PageSize }

// RoundUp rounds n up to a multiple of the profile's page size.
func (p Profile) RoundUp(n int) int {
	ps := p.PageSize
	if ps <= 1 {
		return n
	}
	return (n + ps - 1) / ps * ps
}

// OpTime models the duration of one access of n (page-rounded) bytes.
// The fixed command latency is divided by the queue depth: the ORAM
// issues long streams of independent bucket transfers, which an NVMe
// device overlaps; the bandwidth term is the serial floor. Shared by the
// simulator's data path and the file-backed device's accounting-only
// path (Charge/ChargeN have nothing to measure).
func (p Profile) OpTime(op Op, n int) time.Duration {
	var lat time.Duration
	var bw float64
	if op == OpRead {
		lat, bw = p.ReadLatency, p.ReadBandwidth
	} else {
		lat, bw = p.WriteLatency, p.WriteBandwidth
	}
	if qd := p.QueueDepth; qd > 1 {
		lat /= time.Duration(qd)
	}
	if bw > 0 {
		lat += time.Duration(float64(n) / bw * float64(time.Second))
	}
	return lat
}

// roundUp rounds n up to a multiple of the device page size.
func (s *Sim) roundUp(n int) int {
	if ps := s.profile.PageSize; ps > 1 {
		return (n + ps - 1) / ps * ps
	}
	return n
}

// opTime models one access of n (page-rounded) bytes; see Profile.OpTime.
// Callers must hold s.mu.
func (s *Sim) opTime(op Op, n int) time.Duration {
	m := &s.opTimes[0]
	if op != OpRead {
		m = &s.opTimes[1]
	}
	if !m.ok || m.n != n {
		*m = opTime{n: n, d: s.profile.OpTime(op, n), ok: true}
	}
	return m.d
}

// account updates counters for one access and returns its duration.
// Callers must hold s.mu.
func (s *Sim) account(op Op, n int) time.Duration {
	n = s.roundUp(n)
	d := s.opTime(op, n)
	if op == OpRead {
		s.stats.Reads++
		s.stats.BytesRead += uint64(n)
	} else {
		s.stats.Writes++
		s.stats.BytesWritten += uint64(n)
	}
	s.stats.BusyTime += d
	return d
}

func (s *Sim) checkRange(addr uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("device %s: negative length %d", s.profile.Name, n)
	}
	if addr+uint64(n) > s.capacity {
		return fmt.Errorf("device %s: access [%d, %d) exceeds capacity %d",
			s.profile.Name, addr, addr+uint64(n), s.capacity)
	}
	return nil
}

// copyOut fills p from the sparse store; caller holds s.mu.
func (s *Sim) copyOut(addr uint64, p []byte) {
	for off := 0; off < len(p); {
		pageIdx := (addr + uint64(off)) / storePageSize
		inPage := int((addr + uint64(off)) % storePageSize)
		n := storePageSize - inPage
		if n > len(p)-off {
			n = len(p) - off
		}
		if page := s.pages.Get(pageIdx); page != nil {
			copy(p[off:off+n], page[inPage:inPage+n])
		} else {
			clear(p[off : off+n])
		}
		off += n
	}
}

// copyIn stores p into the sparse store; caller holds s.mu.
func (s *Sim) copyIn(addr uint64, p []byte) {
	for off := 0; off < len(p); {
		pageIdx := (addr + uint64(off)) / storePageSize
		inPage := int((addr + uint64(off)) % storePageSize)
		n := storePageSize - inPage
		if n > len(p)-off {
			n = len(p) - off
		}
		page := s.pages.Get(pageIdx)
		if page == nil {
			page = new(storePage)
			s.pages.Set(pageIdx, page)
		}
		copy(page[inPage:inPage+n], p[off:off+n])
		off += n
	}
}

// ReadAt implements Device.
func (s *Sim) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	s.mu.Lock()
	if err := s.checkRange(addr, len(p)); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.copyOut(addr, p)
	d := s.account(OpRead, len(p))
	s.mu.Unlock()
	return d, nil
}

// WriteAt implements Device.
func (s *Sim) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	s.mu.Lock()
	if err := s.checkRange(addr, len(p)); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.copyIn(addr, p)
	d := s.account(OpWrite, len(p))
	s.mu.Unlock()
	return d, nil
}

// PeekAt implements Device: an unaccounted read.
func (s *Sim) PeekAt(addr uint64, p []byte) error {
	s.mu.Lock()
	err := s.checkRange(addr, len(p))
	if err == nil {
		s.copyOut(addr, p)
	}
	s.mu.Unlock()
	return err
}

// PokeAt implements Device: an unaccounted write.
func (s *Sim) PokeAt(addr uint64, p []byte) error {
	s.mu.Lock()
	err := s.checkRange(addr, len(p))
	if err == nil {
		s.copyIn(addr, p)
	}
	s.mu.Unlock()
	return err
}

// Charge implements Device.
func (s *Sim) Charge(op Op, addr uint64, n int) time.Duration {
	s.mu.Lock()
	d := s.account(op, n)
	s.mu.Unlock()
	return d
}

// ChargeN implements Device.
func (s *Sim) ChargeN(op Op, n, count int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if count <= 0 {
		return 0
	}
	n = s.roundUp(n)
	per := s.opTime(op, n)
	total := per * time.Duration(count)
	if op == OpRead {
		s.stats.Reads += uint64(count)
		s.stats.BytesRead += uint64(n) * uint64(count)
	} else {
		s.stats.Writes += uint64(count)
		s.stats.BytesWritten += uint64(n) * uint64(count)
	}
	s.stats.BusyTime += total
	return total
}

// Stats implements Device.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Device.
func (s *Sim) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// Close implements Storage. The simulator holds no OS resources; a
// closed Sim keeps working (contents live in host memory).
func (s *Sim) Close() error { return nil }

// ResidentBytes reports how much host memory the sparse store currently
// uses for materialized pages; useful in tests to confirm sparseness.
func (s *Sim) ResidentBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.pages.Len()) * storePageSize
}

// WearBytes returns the physical flash bytes consumed by the recorded
// logical writes, after write amplification. The lifetime model should
// divide endurance by this, not by the logical count.
func (s *Sim) WearBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	waf := s.profile.WriteAmplification
	if waf <= 0 {
		waf = 1
	}
	return uint64(float64(s.stats.BytesWritten) * waf)
}

// ActiveEnergyJoules converts accumulated busy time into energy at the
// profile's active power.
func ActiveEnergyJoules(p Profile, st Stats) float64 {
	return p.ActivePower * st.BusyTime.Seconds()
}
