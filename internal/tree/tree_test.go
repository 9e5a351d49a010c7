package tree

import (
	"bytes"
	"errors"
	"strings"
	"testing"

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
