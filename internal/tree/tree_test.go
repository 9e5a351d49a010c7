package tree

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/persist"
	"repro/internal/tee"
)

// TestSealOpen: a sealed bucket opens in place at the counter Seal gave
// it and at no other, each open counted; the page padding is zeroed
// whatever the buffer held; without an engine the image is the
// plaintext, counted nowhere.
func TestSealOpen(t *testing.T) {
	var key [32]byte
	key[0] = 7
	for _, engine := range []*tee.Engine{nil, tee.NewEngine(key)} {
		tr := New(8, 4, 100, engine, 64, 1000)
		if tr.BucketSize() != 128 || tr.Addr(3) != 1000+3*128 || tr.RequiredBytes() != 15*128 || tr.PathBytes() != 4*128 {
			t.Fatalf("engine=%v: size %d, addr %d, tree %d, path %d", engine != nil, tr.BucketSize(), tr.Addr(3), tr.RequiredBytes(), tr.PathBytes())
		}
		plain := bytes.Repeat([]byte{0xab}, 100)
		stored := bytes.Repeat([]byte{0xff}, tr.BucketSize())
		idx := tr.Index(5, 2) // level 2 of leaf 5's path: heap index 3 + 5>>1
		tr.Seal(idx, plain, stored)
		tr.Seal(idx, plain, stored)
		if tr.Counter(idx) != 2 || tr.Written() != 1 || tr.Counter(0) != 0 {
			t.Fatalf("engine=%v: counter %d after two seals, %d written", engine != nil, tr.Counter(idx), tr.Written())
		}
		n := len(plain)
		if engine != nil {
			n = tee.SealedSize(n)
		}
		if !bytes.Equal(stored[n:], make([]byte, len(stored)-n)) {
			t.Fatalf("engine=%v: padding not zeroed", engine != nil)
		}
		var (
			st tee.EngineStats
			op tee.Opener
		)
		if engine != nil {
			op = engine.Opener()
		}
		image := bytes.Clone(stored)
		got, err := tr.Open(&op, stored, idx, 2, &st)
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("engine=%v: open = %x, %v", engine != nil, got, err)
		}
		if engine == nil {
			if st != (tee.EngineStats{}) {
				t.Errorf("a plain open counted %+v", st)
			}
			continue
		}
		if _, err := tr.Open(&op, image, idx, 1, &st); !errors.Is(err, tee.ErrAuthFailed) {
			t.Errorf("open at a stale counter: %v", err)
		}
		if st != (tee.EngineStats{GroupsOpened: 1, BytesOpened: 100, AuthFailures: 1}) {
			t.Errorf("opens counted %+v", st)
		}
		before := engine.Stats()
		if _, err := tr.Open(&op, image, idx, 1, nil); err == nil || engine.Stats().AuthFailures != before.AuthFailures+1 {
			t.Errorf("an open without stats was not counted in the engine: %+v", engine.Stats())
		}
	}
}

// TestCountersSection: the counters round-trip through their snapshot
// section in ascending index order, and a zero counter is refused by
// bucket.
func TestCountersSection(t *testing.T) {
	tr := New(4, 3, 8, nil, 0, 0)
	buf := make([]byte, 8)
	for _, idx := range []uint32{5, 0, 5, 2} {
		tr.Seal(idx, buf, buf)
	}
	var e persist.Encoder
	tr.EncodeCounters(&e)
	want := []byte{3, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
		5, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(e.Finish(), want) {
		t.Fatalf("section %v, want %v", e.Finish(), want)
	}
	c, err := DecodeCounters(persist.NewDecoder(want))
	if err != nil {
		t.Fatal(err)
	}
	back := New(4, 3, 8, nil, 0, 0)
	back.SetCounters(c)
	for idx := uint32(0); idx < 7; idx++ {
		if back.Counter(idx) != tr.Counter(idx) {
			t.Errorf("bucket %d: counter %d after the round trip, want %d", idx, back.Counter(idx), tr.Counter(idx))
		}
	}
	bad := bytes.Clone(want)
	clear(bad[24:32]) // bucket 2's counter
	if _, err := DecodeCounters(persist.NewDecoder(bad)); err == nil || !strings.Contains(err.Error(), "bucket 2 ") {
		t.Errorf("a zero counter decoded: %v", err)
	}
	if _, err := DecodeCounters(persist.NewDecoder(want[:30])); err == nil {
		t.Error("a truncated section decoded")
	}
}

// TestPathRead pins the path I/O's rules on a sealed tree over a Sim: an
// uncharged Write moves bytes and charges nothing; an uncharged Read of
// a never-written bucket moves nothing and leaves its level's bucket
// held; an uncharged Read returns a held bucket before its counter is
// looked up; a failed read empties its level, so the next Read fetches
// again; a charged Read is always one recorded ReadAt, of a held or a
// never-written bucket too. A tripped Faulty, which fails every byte it
// is asked to move, shows where nothing moves.
func TestPathRead(t *testing.T) {
	var key [32]byte
	key[0] = 3
	tr := New(8, 4, 100, tee.NewEngine(key), 64, 0)
	sim := device.NewSSD(1 << 20)
	rec := device.NewRecorder(sim)
	dead := device.NewFaulty(sim, 0)
	image := func(b byte) []byte { return bytes.Repeat([]byte{b}, tr.PlainSize()) }
	write := func(dev device.Device, idx uint32, charge bool) {
		copy(tr.Plain(), image(byte(idx)))
		if _, err := tr.Write(dev, idx, charge); err != nil {
			t.Fatal(err)
		}
	}

	write(sim, 3, false)
	if st := sim.Stats(); st != (device.Stats{}) {
		t.Errorf("an uncharged Write charged %+v", st)
	}
	write(rec, 4, true)
	if got := rec.WriteAddrs(); !slices.Equal(got, []uint64{tr.Addr(4)}) {
		t.Errorf("a charged Write recorded %v, want [%d]", got, tr.Addr(4))
	}
	sim.ResetStats()

	p := tr.NewPath()
	got, _, err := p.Read(sim, 2, 3, false, nil)
	if err != nil || !bytes.Equal(got, image(3)) || p.Held()[2] != 3 || p.First()[2] != 3 {
		t.Fatalf("uncharged Read of bucket 3 = %x, %v; held %d, first %d", got, err, p.Held()[2], p.First()[2])
	}
	if st := sim.Stats(); st != (device.Stats{}) {
		t.Errorf("an uncharged Read charged %+v", st)
	}
	if got, _, err := p.Read(dead, 2, 5, false, nil); got != nil || err != nil || p.Held()[2] != 3 {
		t.Errorf("uncharged Read of never-written bucket 5 = %x, %v; level holds %d, want 3", got, err, p.Held()[2])
	}

	var e persist.Encoder
	tr.EncodeCounters(&e)
	tr.SetCounters(Counters{}) // bucket 3 reads as never written
	if got, _, err := p.Read(dead, 2, 3, false, nil); err != nil || !bytes.Equal(got, image(3)) {
		t.Errorf("Read of the held bucket looked up its counter: %x, %v", got, err)
	}
	c, err := DecodeCounters(persist.NewDecoder(e.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetCounters(c)

	if _, _, err := p.Read(dead, 2, 4, false, nil); !errors.Is(err, device.ErrInjected) || p.Held()[2] != NoBucket {
		t.Fatalf("failed Read of bucket 4: %v; level holds %d, want none", err, p.Held()[2])
	}
	if _, _, err := p.Read(dead, 2, 3, false, nil); !errors.Is(err, device.ErrInjected) {
		t.Errorf("Read of bucket 3 after a failed read = %v, want it fetched again", err)
	}
	if got, _, err := p.Read(sim, 2, 3, false, nil); err != nil || !bytes.Equal(got, image(3)) {
		t.Fatalf("uncharged Read of bucket 3 = %x, %v", got, err)
	}
	rec.Clear()
	if got, _, err := p.Read(rec, 2, 3, true, nil); err != nil || !bytes.Equal(got, image(3)) || !slices.Equal(rec.ReadAddrs(), []uint64{tr.Addr(3)}) {
		t.Errorf("charged Read of the held bucket 3 = %x, %v, recorded %v; want one ReadAt", got, err, rec.ReadAddrs())
	}

	rec.Clear()
	got, d, err := p.Read(rec, 3, 7, true, nil)
	if got != nil || err != nil || d <= 0 || !slices.Equal(rec.ReadAddrs(), []uint64{tr.Addr(7)}) {
		t.Errorf("charged Read of never-written bucket 7 = %x, %v, %v, recorded %v; want nil, one ReadAt", got, d, err, rec.ReadAddrs())
	}
}
