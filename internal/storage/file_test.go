package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/persist"
)

// newTestFile opens a file-backed device in a test temp dir.
func newTestFile(t *testing.T, capacity uint64, spec Spec) *File {
	t.Helper()
	fd, err := OpenFile("ssd", filepath.Join(t.TempDir(), "ssd.dev"), device.PM9A1SSD, capacity, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	return fd
}

// TestFileDeviceMatchesSim drives the same random operation sequence
// through the simulator and the file backend and demands bit-identical
// contents at every read — the seam's core invariant.
func TestFileDeviceMatchesSim(t *testing.T) {
	const capacity = 1 << 20
	sim := device.NewSim(device.PM9A1SSD, capacity)
	fd := newTestFile(t, capacity, Spec{})

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		addr := uint64(rng.Intn(capacity - 9000))
		n := 1 + rng.Intn(8192) // crosses page boundaries, arbitrary alignment
		switch rng.Intn(4) {
		case 0: // accounted write
			p := make([]byte, n)
			rng.Read(p)
			if _, err := sim.WriteAt(addr, p); err != nil {
				t.Fatal(err)
			}
			if _, err := fd.WriteAt(addr, p); err != nil {
				t.Fatal(err)
			}
		case 1: // unaccounted write
			p := make([]byte, n)
			rng.Read(p)
			if err := sim.PokeAt(addr, p); err != nil {
				t.Fatal(err)
			}
			if err := fd.PokeAt(addr, p); err != nil {
				t.Fatal(err)
			}
		case 2: // accounted read
			a, b := make([]byte, n), make([]byte, n)
			if _, err := sim.ReadAt(addr, a); err != nil {
				t.Fatal(err)
			}
			if _, err := fd.ReadAt(addr, b); err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("op %d: ReadAt(%d, %d) diverged between sim and file", i, addr, n)
			}
		case 3: // unaccounted read
			a, b := make([]byte, n), make([]byte, n)
			if err := sim.PeekAt(addr, a); err != nil {
				t.Fatal(err)
			}
			if err := fd.PeekAt(addr, b); err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("op %d: PeekAt(%d, %d) diverged between sim and file", i, addr, n)
			}
		}
	}
	// The accounted byte/op counters must agree too: both backends round
	// to the profile page size.
	ss, fs := sim.Stats(), fd.Stats()
	if ss.Reads != fs.Reads || ss.Writes != fs.Writes ||
		ss.BytesRead != fs.BytesRead || ss.BytesWritten != fs.BytesWritten {
		t.Fatalf("accounting diverged: sim %+v, file %+v", ss, fs)
	}
}

// TestFileDeviceUnalignedRMW checks that an unaligned write preserves
// the surrounding bytes (the read-modify-write edge-page path).
func TestFileDeviceUnalignedRMW(t *testing.T) {
	fd := newTestFile(t, 1<<16, Spec{})
	base := make([]byte, 3*pageAlign)
	for i := range base {
		base[i] = byte(i)
	}
	if _, err := fd.WriteAt(0, base); err != nil {
		t.Fatal(err)
	}
	// Overwrite 100 bytes straddling the page-1/page-2 boundary.
	patch := make([]byte, 100)
	for i := range patch {
		patch[i] = 0xEE
	}
	at := uint64(2*pageAlign - 50)
	if _, err := fd.WriteAt(at, patch); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(base))
	if _, err := fd.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := byte(i)
		if uint64(i) >= at && uint64(i) < at+100 {
			want = 0xEE
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x (RMW corrupted the span)", i, got[i], want)
		}
	}
}

// TestFileDeviceOutOfRange verifies range checks on every entry point.
func TestFileDeviceOutOfRange(t *testing.T) {
	fd := newTestFile(t, 8192, Spec{})
	buf := make([]byte, 16)
	if _, err := fd.ReadAt(8190, buf); err == nil {
		t.Fatal("ReadAt past capacity accepted")
	}
	if _, err := fd.WriteAt(8190, buf); err == nil {
		t.Fatal("WriteAt past capacity accepted")
	}
	if err := fd.PeekAt(1<<40, buf); err == nil {
		t.Fatal("PeekAt past capacity accepted")
	}
	if err := fd.PokeAt(8192, buf); err == nil {
		t.Fatal("PokeAt at capacity accepted")
	}
}

// TestFileDeviceShortRead truncates the backing file behind the device's
// back; the next read must fail loudly, not return silent zeros.
func TestFileDeviceShortRead(t *testing.T) {
	fd := newTestFile(t, 1<<16, Spec{})
	p := make([]byte, pageAlign)
	if _, err := fd.WriteAt(0, p); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(fd.Path(), 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.ReadAt(0, p); err == nil || !strings.Contains(err.Error(), "short read") {
		t.Fatalf("read from truncated backing file: err = %v, want short-read failure", err)
	}
}

// TestFileDeviceSnapshotRoundtrip checks Snapshot/Restore on one device
// and, critically, across backends: file → sim and sim → file, same
// wire format, same bytes, same stats.
func TestFileDeviceSnapshotRoundtrip(t *testing.T) {
	const capacity = 1 << 18
	fd := newTestFile(t, capacity, Spec{})
	rng := rand.New(rand.NewSource(7))
	want := make([]byte, 3*pageAlign+123)
	rng.Read(want)
	if _, err := fd.WriteAt(pageAlign+17, want); err != nil {
		t.Fatal(err)
	}

	snap, err := fd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// file → sim
	sim := device.NewSim(device.PM9A1SSD, capacity)
	if err := sim.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := sim.PeekAt(pageAlign+17, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("file→sim restore lost bytes")
	}
	if sim.Stats() != fd.Stats() {
		t.Fatalf("file→sim restore stats %+v != %+v", sim.Stats(), fd.Stats())
	}

	// sim → file (fresh device)
	fd2 := newTestFile(t, capacity, Spec{})
	simSnap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := fd2.Restore(simSnap); err != nil {
		t.Fatal(err)
	}
	if err := fd2.PeekAt(pageAlign+17, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("sim→file restore lost bytes")
	}
	// And the restored file snapshots back to identical contents.
	snap2, err := fd2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap2) != string(snap) {
		t.Fatal("snapshot not stable across a cross-backend roundtrip")
	}
}

// TestFileDeviceRestoreRejectsMismatch: profile and capacity guards.
func TestFileDeviceRestoreRejectsMismatch(t *testing.T) {
	fd := newTestFile(t, 1<<16, Spec{})
	otherProfile := device.NewSim(device.DDR5DRAM, 1<<16)
	snap, err := otherProfile.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Restore(snap); err == nil {
		t.Fatal("restore accepted a snapshot from a different profile")
	}
	otherCap := device.NewSim(device.PM9A1SSD, 1<<17)
	if snap, err = otherCap.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := fd.Restore(snap); err == nil {
		t.Fatal("restore accepted a snapshot with a different capacity")
	}
}

// TestFileDeviceFsyncPolicies exercises the three durability modes.
func TestFileDeviceFsyncPolicies(t *testing.T) {
	page := make([]byte, pageAlign)

	always := newTestFile(t, 1<<16, Spec{Fsync: FsyncAlways})
	for i := 0; i < 3; i++ {
		if _, err := always.WriteAt(uint64(i)*pageAlign, page); err != nil {
			t.Fatal(err)
		}
	}
	if rep := always.Report(); rep.Fsyncs != 3 || rep.DirtyPages != 0 {
		t.Fatalf("always: fsyncs=%d dirty=%d, want 3/0", rep.Fsyncs, rep.DirtyPages)
	}

	// Batched with a 4-page window: the 4th page written forces a flush.
	batched := newTestFile(t, 1<<16, Spec{Fsync: FsyncBatched, MaxDirtyPages: 4})
	for i := 0; i < 3; i++ {
		if _, err := batched.WriteAt(uint64(i)*pageAlign, page); err != nil {
			t.Fatal(err)
		}
	}
	if rep := batched.Report(); rep.Fsyncs != 0 || rep.DirtyPages != 3 {
		t.Fatalf("batched pre-bound: fsyncs=%d dirty=%d, want 0/3", rep.Fsyncs, rep.DirtyPages)
	}
	if _, err := batched.WriteAt(3*pageAlign, page); err != nil {
		t.Fatal(err)
	}
	if rep := batched.Report(); rep.Fsyncs != 1 || rep.DirtyPages != 0 {
		t.Fatalf("batched at bound: fsyncs=%d dirty=%d, want 1/0", rep.Fsyncs, rep.DirtyPages)
	}

	never := newTestFile(t, 1<<16, Spec{Fsync: FsyncNever})
	for i := 0; i < 10; i++ {
		if _, err := never.WriteAt(uint64(i)*pageAlign, page); err != nil {
			t.Fatal(err)
		}
	}
	if rep := never.Report(); rep.Fsyncs != 0 {
		t.Fatalf("never: fsyncs=%d, want 0", rep.Fsyncs)
	}
	// An explicit barrier still works under any policy.
	if err := never.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep := never.Report(); rep.Fsyncs != 1 {
		t.Fatalf("never+Sync: fsyncs=%d, want 1", rep.Fsyncs)
	}
}

// TestFileDeviceLatencyReport: real I/O must populate the histograms on
// both the accounted (ReadAt/WriteAt) and unaccounted (Peek/Poke) paths.
func TestFileDeviceLatencyReport(t *testing.T) {
	fd := newTestFile(t, 1<<16, Spec{})
	p := make([]byte, 512)
	if _, err := fd.WriteAt(0, p); err != nil {
		t.Fatal(err)
	}
	if err := fd.PokeAt(4096, p); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.ReadAt(0, p); err != nil {
		t.Fatal(err)
	}
	if err := fd.PeekAt(0, p); err != nil {
		t.Fatal(err)
	}
	rep := fd.Report()
	if rep.Read.Count != 2 || rep.Write.Count != 2 {
		t.Fatalf("latency counts read=%d write=%d, want 2/2", rep.Read.Count, rep.Write.Count)
	}
	if rep.Read.P50 <= 0 || rep.Read.Max < rep.Read.P50 || rep.Read.P99 < rep.Read.P50 {
		t.Fatalf("implausible read summary %+v", rep.Read)
	}
	if rep.Backend != "file" || rep.Name != "ssd" {
		t.Fatalf("report identity %q/%q", rep.Name, rep.Backend)
	}
	fd.ResetStats()
	if rep := fd.Report(); rep.Read.Count != 0 || rep.Write.Count != 0 {
		t.Fatal("ResetStats did not clear latency histograms")
	}
}

// TestFileDeviceChargeMatchesSim: phantom accounting over the file
// backend must model exactly what the simulator models.
func TestFileDeviceChargeMatchesSim(t *testing.T) {
	sim := device.NewSim(device.PM9A1SSD, 1<<20)
	fd := newTestFile(t, 1<<20, Spec{})
	for _, n := range []int{1, 100, 4096, 9000} {
		if s, f := sim.Charge(device.OpRead, 0, n), fd.Charge(device.OpRead, 0, n); s != f {
			t.Fatalf("Charge(read, %d): sim %v != file %v", n, s, f)
		}
		if s, f := sim.ChargeN(device.OpWrite, n, 7), fd.ChargeN(device.OpWrite, n, 7); s != f {
			t.Fatalf("ChargeN(write, %d, 7): sim %v != file %v", n, s, f)
		}
	}
	if sim.Stats() != fd.Stats() {
		t.Fatalf("phantom accounting diverged: sim %+v, file %+v", sim.Stats(), fd.Stats())
	}
}

// TestFileDeviceClosed: every operation fails with ErrClosed after
// Close, and Close is idempotent.
func TestFileDeviceClosed(t *testing.T) {
	fd := newTestFile(t, 1<<16, Spec{})
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	p := make([]byte, 8)
	if _, err := fd.ReadAt(0, p); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after close: %v", err)
	}
	if _, err := fd.WriteAt(0, p); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteAt after close: %v", err)
	}
	if _, err := fd.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after close: %v", err)
	}
	if err := fd.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
}

// TestFileDeviceDirectRequest: requesting O_DIRECT must never fail the
// open — on filesystems without it (tmpfs, where CI runs) the device
// falls back to buffered I/O and says so in its report.
func TestFileDeviceDirectRequest(t *testing.T) {
	fd := newTestFile(t, 1<<16, Spec{Direct: true})
	p := make([]byte, pageAlign)
	if _, err := fd.WriteAt(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.ReadAt(0, p); err != nil {
		t.Fatal(err)
	}
	t.Logf("O_DIRECT active: %v (falls back silently where unsupported)", fd.Direct())
}

// TestFileDeviceReopenStartsZeroed: the backing file is working state;
// reopening the same path must present a zeroed device.
func TestFileDeviceReopenStartsZeroed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssd.dev")
	fd, err := OpenFile("ssd", path, device.PM9A1SSD, 1<<16, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 64)
	for i := range p {
		p[i] = 0xAB
	}
	if _, err := fd.WriteAt(0, p); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	fd2, err := OpenFile("ssd", path, device.PM9A1SSD, 1<<16, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd2.Close()
	got := make([]byte, 64)
	if _, err := fd2.ReadAt(0, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x after reopen, want zeroed working state", i, b)
		}
	}
}

// TestStorageOpenAndSpec covers the factory and the CLI spec parsing.
func TestStorageOpenAndSpec(t *testing.T) {
	if k, err := ParseKind(""); err != nil || k != KindSim {
		t.Fatalf("ParseKind(\"\") = %v, %v", k, err)
	}
	if k, err := ParseKind("file"); err != nil || k != KindFile {
		t.Fatalf("ParseKind(file) = %v, %v", k, err)
	}
	if _, err := ParseKind("nvme"); err == nil {
		t.Fatal("unknown backend accepted")
	}

	// Sim kind ignores dir; zero Spec is the simulator.
	d, err := Open("ssd", device.PM9A1SSD, 1<<16, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*device.Sim); !ok {
		t.Fatalf("zero Spec opened %T, want *device.Sim", d)
	}

	// File kind without a dir fails in Open but ParseSpec provisions one.
	if _, err := Open("ssd", device.PM9A1SSD, 1<<16, Spec{Kind: KindFile}); err == nil {
		t.Fatal("file backend without dir accepted")
	}
	spec, err := ParseSpec("file", "", false)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(spec.Dir)
	if spec.Dir == "" {
		t.Fatal("ParseSpec(file) did not provision a directory")
	}

	// Prefix qualifies both the file name and the device name.
	spec.Prefix = "shard3"
	d, err = Open("ssd", device.PM9A1SSD, 1<<16, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fd := d.(*File)
	if fd.Name() != "shard3/ssd" {
		t.Fatalf("device name %q, want shard3/ssd", fd.Name())
	}
	if want := filepath.Join(spec.Dir, "shard3-ssd.dev"); fd.Path() != want {
		t.Fatalf("backing file %q, want %q", fd.Path(), want)
	}
}

// TestFileDeviceWearBytes mirrors the simulator's WAF model.
func TestFileDeviceWearBytes(t *testing.T) {
	fd := newTestFile(t, 1<<16, Spec{})
	p := make([]byte, pageAlign)
	if _, err := fd.WriteAt(0, p); err != nil {
		t.Fatal(err)
	}
	sim := device.NewSim(device.PM9A1SSD, 1<<16)
	if _, err := sim.WriteAt(0, p); err != nil {
		t.Fatal(err)
	}
	if fd.WearBytes() != sim.WearBytes() {
		t.Fatalf("WearBytes %d != sim %d", fd.WearBytes(), sim.WearBytes())
	}
}

// TestFileSnapshotCoalescedRuns: the file device fetches adjacent
// written pages with one pread per run, straight into the snapshot
// buffer, and moves them into their records in place. Whatever the page
// layout — a run longer than one pread's cap, isolated pages, a page
// that was written and then zeroed in the middle of a run, at its end
// and alone, a partial tail page — the bytes are those of a simulator
// holding the same pages, nested in an outer section or not.
func TestFileSnapshotCoalescedRuns(t *testing.T) {
	t.Run("buffered", func(t *testing.T) { testCoalescedRuns(t, Spec{}) })
	// O_DIRECT reads go through the aligned bounce buffer (where the
	// filesystem refuses the flag this repeats the buffered case).
	t.Run("direct", func(t *testing.T) { testCoalescedRuns(t, Spec{Direct: true}) })
}

func testCoalescedRuns(t *testing.T, spec Spec) {
	const capacity = 4 << 20
	sim := device.NewSim(device.PM9A1SSD, capacity)
	fd := newTestFile(t, capacity, spec)
	rng := rand.New(rand.NewSource(11))
	write := func(page uint64, pages int, zero bool) {
		p := make([]byte, pages*pageAlign)
		if !zero {
			rng.Read(p)
		}
		for _, d := range []device.Device{sim, fd} {
			if _, err := d.WriteAt(page*pageAlign, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 3, false)                    // a run from page 0
	write(1, 1, true)                     // zeroed in the middle of it
	write(10, 1, false)                   // isolated
	write(12, 1, false)                   // isolated, one page apart
	write(20, 4, false)                   // a run
	write(23, 1, true)                    // zeroed at its end
	write(40, 1, true)                    // written, all zero, alone
	write(100, snapshotRunPages+5, false) // longer than one pread
	tail := make([]byte, 100)             // a partial page, the device's last
	rng.Read(tail)
	for _, d := range []device.Device{sim, fd} {
		if err := d.PokeAt(capacity-uint64(len(tail)), tail); err != nil {
			t.Fatal(err)
		}
	}

	// The traffic counters differ by design (the file's BusyTime is
	// measured); the pages are what is compared.
	sim.ResetStats()
	fd.ResetStats()

	want, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file snapshot (%d bytes) differs from the simulator's (%d bytes)", len(got), len(want))
	}

	var e persist.Encoder
	e.String("before")
	m := e.BeginBytes()
	if err := fd.SnapshotTo(&e); err != nil {
		t.Fatal(err)
	}
	e.EndBytes(m)
	e.U32(7)
	d := persist.NewDecoder(e.Finish())
	if d.String() != "before" || !bytes.Equal(d.Bytes(), want) || d.U32() != 7 || d.Err() != nil {
		t.Fatal("file snapshot nested in an outer section differs from the simulator's blob")
	}

	if n := fd.SnapshotSize(); n < len(want) {
		t.Fatalf("SnapshotSize %d is below the %d bytes written", n, len(want))
	}
}
