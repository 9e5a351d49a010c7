package device

import (
	"runtime"
	"testing"
	"time"
)

func TestReadBackWrites(t *testing.T) {
	d := NewDRAM(1 << 20)
	data := []byte("hello, oram")
	if _, err := d.WriteAt(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("read back %q, want %q", got, data)
	}
}

func TestUnwrittenReadsAsZero(t *testing.T) {
	d := NewDRAM(1 << 20)
	p := []byte{0xFF, 0xFF, 0xFF}
	if _, err := d.ReadAt(5000, p); err != nil {
		t.Fatal(err)
	}
	for i, b := range p {
		if b != 0 {
			t.Errorf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWriteSpanningStorePages(t *testing.T) {
	d := NewDRAM(1 << 20)
	data := make([]byte, 10000) // spans 3 backing pages
	for i := range data {
		data[i] = byte(i % 251)
	}
	addr := uint64(storePageSize - 17)
	if _, err := d.WriteAt(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at offset %d", i)
		}
	}
}

func TestOutOfRangeAccessFails(t *testing.T) {
	d := NewDRAM(1024)
	if _, err := d.WriteAt(1020, make([]byte, 8)); err == nil {
		t.Error("write past capacity succeeded")
	}
	if _, err := d.ReadAt(1025, make([]byte, 1)); err == nil {
		t.Error("read past capacity succeeded")
	}
	// Exactly at the boundary is fine.
	if _, err := d.WriteAt(1016, make([]byte, 8)); err != nil {
		t.Errorf("boundary write failed: %v", err)
	}
}

func TestSSDPageRounding(t *testing.T) {
	d := NewSSD(1 << 20)
	if _, err := d.WriteAt(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.BytesWritten != 4096 {
		t.Errorf("BytesWritten = %d, want 4096 (page-rounded)", st.BytesWritten)
	}
	if _, err := d.ReadAt(0, make([]byte, 4097)); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.BytesRead != 8192 {
		t.Errorf("BytesRead = %d, want 8192 (two pages)", st.BytesRead)
	}
}

func TestDRAMNoRounding(t *testing.T) {
	d := NewDRAM(1 << 20)
	if _, err := d.WriteAt(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.BytesWritten != 100 {
		t.Errorf("BytesWritten = %d, want 100", st.BytesWritten)
	}
}

func TestChargeAccountsWithoutStoring(t *testing.T) {
	d := NewSSD(1 << 30)
	dur := d.Charge(OpWrite, 0, 4096)
	if dur <= 0 {
		t.Error("Charge returned non-positive duration")
	}
	st := d.Stats()
	if st.Writes != 1 || st.BytesWritten != 4096 {
		t.Errorf("stats after Charge = %+v", st)
	}
	if d.ResidentBytes() != 0 {
		t.Errorf("Charge materialized %d bytes", d.ResidentBytes())
	}
}

func TestTimingModel(t *testing.T) {
	d := NewSSD(1 << 30)
	rd := d.Charge(OpRead, 0, 4096)
	wr := d.Charge(OpWrite, 0, 4096)
	// One-page read ≈ 70µs/QD16 + 4096/7e9 s; write ≈ 20µs/QD16 + …
	wantRd := PM9A1SSD.ReadLatency / time.Duration(PM9A1SSD.QueueDepth)
	wantWr := PM9A1SSD.WriteLatency / time.Duration(PM9A1SSD.QueueDepth)
	if rd < wantRd || rd > wantRd+10*time.Microsecond {
		t.Errorf("read time = %v", rd)
	}
	if wr < wantWr || wr > wantWr+10*time.Microsecond {
		t.Errorf("write time = %v", wr)
	}
	// Larger transfers take longer via the bandwidth term.
	big := d.Charge(OpRead, 0, 1<<20)
	if big <= rd {
		t.Errorf("1 MiB read (%v) not slower than 4 KiB read (%v)", big, rd)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	d := NewDRAM(1 << 20)
	_, _ = d.WriteAt(0, make([]byte, 10))
	_, _ = d.ReadAt(0, make([]byte, 10))
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BusyTime <= 0 {
		t.Errorf("stats = %+v", st)
	}
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Writes: 2, BytesRead: 3, BytesWritten: 4, BusyTime: 5}
	b := Stats{Reads: 10, Writes: 20, BytesRead: 30, BytesWritten: 40, BusyTime: 50}
	a.Add(b)
	want := Stats{Reads: 11, Writes: 22, BytesRead: 33, BytesWritten: 44, BusyTime: 55}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestSparseStoreStaysSmall(t *testing.T) {
	d := NewSSD(1 << 40) // 1 TiB address space
	// Touch three far-apart pages.
	for _, addr := range []uint64{0, 1 << 30, 1 << 39} {
		if _, err := d.WriteAt(addr, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if rb := d.ResidentBytes(); rb > 3*4096 {
		t.Errorf("resident = %d bytes for 3 page writes", rb)
	}
}

// TestHugeDeviceCostsWhatItTouches: every controller's DRAM device is
// NewDRAM(1<<62). Building one allocates no page store, and a write near
// 2^50 costs the page it lands on — nothing is sized from the capacity.
func TestHugeDeviceCostsWhatItTouches(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDRAM(1 << 62)
	if _, err := d.WriteAt(1<<50+100, []byte("far")); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if rb := d.ResidentBytes(); rb != storePageSize {
		t.Errorf("resident = %d bytes after one small write, want one page", rb)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a 2^62-byte device and one write allocated %d bytes", grew)
	}
	got := make([]byte, 3)
	if _, err := d.ReadAt(1<<50+100, got); err != nil || string(got) != "far" {
		t.Errorf("read back %q, %v", got, err)
	}
	if n := testing.AllocsPerRun(20, func() { NewDRAM(1 << 62) }); n > 1 {
		t.Errorf("NewDRAM allocates %.0f times, want the Sim alone", n)
	}
}

func TestActiveEnergy(t *testing.T) {
	d := NewSSD(1 << 30)
	d.Charge(OpRead, 0, 1<<30) // ~0.15 s at 7 GB/s
	e := ActiveEnergyJoules(PM9A1SSD, d.Stats())
	if e <= 0 {
		t.Error("energy should be positive")
	}
	// Sanity: energy = power × time within float tolerance.
	want := PM9A1SSD.ActivePower * d.Stats().BusyTime.Seconds()
	if diff := e - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("energy = %v, want %v", e, want)
	}
}

func TestBadProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSim with PageSize 0 did not panic")
		}
	}()
	NewSim(Profile{PageSize: 0}, 100)
}

func TestNegativeLengthRejected(t *testing.T) {
	d := NewDRAM(100)
	if err := d.checkRange(0, -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestWearBytesAmplification(t *testing.T) {
	p := PM9A1SSD
	p.WriteAmplification = 2.5
	d := NewSim(p, 1<<20)
	d.Charge(OpWrite, 0, 4096)
	if got := d.WearBytes(); got != uint64(2.5*4096) {
		t.Errorf("WearBytes = %d, want %d", got, uint64(2.5*4096))
	}
	// Default profile: WAF 1 (whole-page ORAM bucket writes).
	d2 := NewSSD(1 << 20)
	d2.Charge(OpWrite, 0, 4096)
	if d2.WearBytes() != 4096 {
		t.Errorf("default WearBytes = %d", d2.WearBytes())
	}
}
