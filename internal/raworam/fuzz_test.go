package raworam

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/stash"
	"repro/internal/tee"
)

// switchedSSD serves every bucket read and write from the device it
// wraps, or — while faulting is set — through a transient Faulty over the
// same device.
type switchedSSD struct {
	device.Device
	faulty   *device.Faulty
	faulting bool
}

func (d *switchedSSD) PeekAt(addr uint64, p []byte) error {
	if d.faulting {
		return d.faulty.PeekAt(addr, p)
	}
	return d.Device.PeekAt(addr, p)
}

func (d *switchedSSD) PokeAt(addr uint64, p []byte) error {
	if d.faulting {
		return d.faulty.PokeAt(addr, p)
	}
	return d.Device.PokeAt(addr, p)
}

// FuzzRAWORAM drives the main ORAM's operations over a small tree from
// the input's op bytes. The first byte picks the geometry: Z = 1–4, an
// eviction period of 1–3, with or without an engine, with the default or
// a small stash. Every later byte is one op: an AO batch of up to four
// distinct ids that are in the ORAM, a write-back of an id that is out,
// a dummy write-back, a short flush, a Peek, a snapshot→restore, or a
// toggle of transient device faults. Until an op fails, every payload
// and every Peek of an id in the ORAM agrees with a map of what was
// written back (never-written blocks read as zeros). Whatever happens,
// the stash stays within its capacity, a failure is stash.ErrOverflow
// or — while faulting — wraps device.ErrInjected, and nothing panics.
// After a failed op the contents are no longer checked: a failed
// eviction may lose blocks. After an injected fault a sealed tree may
// also fail authentication: a failed bucket write leaves the bucket's
// counter advanced past the image the device still holds.
func FuzzRAWORAM(f *testing.F) {
	f.Add([]byte{0x00, 0, 7, 1, 8, 2, 14, 1, 3, 0, 4, 11})
	f.Add([]byte{0x15, 0, 7, 14, 1, 1, 1, 2, 2, 3, 4, 0, 11, 18, 5, 1})
	f.Add([]byte{0x3a, 0, 21, 35, 1, 8, 15, 22, 2, 9, 16, 0, 3})
	f.Add([]byte{0x17, 0, 7, 6, 1, 8, 2, 9, 6, 0, 14, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0, 7, 14, 21, 1, 8, 15, 22, 2, 5, 0, 4, 6, 3, 10})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 512 {
			return
		}
		const numBlocks, blockSize = 24, 8
		hdr, ops := in[0], in[1:]
		cfg := Config{
			NumBlocks: numBlocks, BlockSize: blockSize, BucketSlots: 1 + int(hdr&3),
			EvictPeriod: 1 + int(hdr>>2&3)%3, Seed: int64(hdr),
		}
		if hdr&16 != 0 {
			cfg.Engine = testEngine()
		}
		if hdr&32 != 0 {
			cfg.StashCapacity = 4 + int(hdr>>6)
		}
		newORAM := func(sim *device.Sim) (*ORAM, *switchedSSD) {
			ssd := &switchedSSD{Device: sim, faulty: device.NewTransientFaulty(sim, 0.05, int64(hdr))}
			o, err := New(cfg, ssd, device.NewDRAM(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			return o, ssd
		}
		sim := device.NewSSD(1 << 24)
		o, ssd := newORAM(sim)
		capacity := o.stash.Capacity()

		model := map[uint64][]byte{}
		want := func(id uint64) []byte {
			if b, ok := model[id]; ok {
				return b
			}
			return make([]byte, blockSize)
		}
		var out []uint64  // AO'd and not yet written back
		intact := true    // no op has failed: the model is the ORAM's contents
		injected := false // an op failed under an injected fault
		for i, b := range ops {
			arg := int(b / 7)
			var err error
			switch b % 7 {
			case 0:
				var ids []uint64
				for id := uint64(arg*5) % numBlocks; len(ids) < 1+arg%4 && len(out)+len(ids) < numBlocks; id = (id + 1) % numBlocks {
					if !slices.Contains(out, id) && !slices.Contains(ids, id) {
						ids = append(ids, id)
					}
				}
				if len(ids) == 0 {
					continue
				}
				dst := make([]byte, len(ids)*blockSize)
				_, err = o.AOAccessBatch(ids, dst)
				if err == nil && intact {
					for k, id := range ids {
						if got := dst[k*blockSize : (k+1)*blockSize]; !bytes.Equal(got, want(id)) {
							t.Fatalf("op %d: AO(%d) = %x, wrote %x", i, id, got, want(id))
						}
					}
				}
				out = append(out, ids...)
			case 1:
				if len(out) == 0 {
					continue
				}
				k := arg % len(out)
				id := out[k]
				out = append(out[:k], out[k+1:]...)
				data := bytes.Repeat([]byte{byte(i + 1)}, blockSize)
				_, err = o.WriteBack(id, data)
				model[id] = data
			case 2:
				_, err = o.WriteBackDummy()
			case 3:
				_, err = o.Flush(1 + arg%8)
				if err != nil && o.StashLen() > 0 && strings.Contains(err.Error(), "still in stash") {
					err = nil // a flush too short to drain the stash is not a failure
				}
			case 4:
				id := uint64(arg) % numBlocks
				if ssd.faulting || slices.Contains(out, id) {
					continue // a fault proves nothing about Peek; an id that is out has no contents here
				}
				got, perr := o.Peek(id)
				if perr != nil {
					if injected && errors.Is(perr, tee.ErrAuthFailed) {
						continue
					}
					t.Fatalf("op %d: Peek(%d): %v", i, id, perr)
				}
				if intact && !bytes.Equal(got, want(id)) {
					t.Fatalf("op %d: Peek(%d) = %x, wrote %x", i, id, got, want(id))
				}
			case 5:
				snap, serr := o.Snapshot()
				if serr != nil {
					t.Fatalf("op %d: Snapshot: %v", i, serr)
				}
				devSnap, serr := sim.Snapshot()
				if serr != nil {
					t.Fatalf("op %d: device Snapshot: %v", i, serr)
				}
				faulting := ssd.faulting
				sim = device.NewSSD(1 << 24)
				if serr := sim.Restore(devSnap); serr != nil {
					t.Fatalf("op %d: device Restore: %v", i, serr)
				}
				o, ssd = newORAM(sim)
				ssd.faulting = faulting
				if serr := o.Restore(snap); serr != nil {
					t.Fatalf("op %d: Restore: %v", i, serr)
				}
			case 6:
				ssd.faulting = !ssd.faulting
			}
			if err != nil {
				intact = false
				switch {
				case errors.Is(err, stash.ErrOverflow):
				case ssd.faulting && errors.Is(err, device.ErrInjected):
					injected = true
				case injected && errors.Is(err, tee.ErrAuthFailed):
				default:
					t.Fatalf("op %d (faulting=%v): unexpected error %v", i, ssd.faulting, err)
				}
			}
			if capacity > 0 && o.StashLen() > capacity {
				t.Fatalf("op %d: stash holds %d blocks, capacity %d", i, o.StashLen(), capacity)
			}
		}
	})
}
