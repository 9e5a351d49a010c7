package pathoram

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/stash"
	"repro/internal/tee"
)

// switchedDevice serves every op from the device it wraps, or — while
// faulting is set — through a transient Faulty over the same device.
type switchedDevice struct {
	device.Device
	faulty   *device.Faulty
	faulting bool
}

func newSwitchedDevice(inner device.Device, seed int64) *switchedDevice {
	return &switchedDevice{Device: inner, faulty: device.NewTransientFaulty(inner, 0.05, seed)}
}

func (d *switchedDevice) ReadAt(addr uint64, p []byte) (time.Duration, error) {
	if d.faulting {
		return d.faulty.ReadAt(addr, p)
	}
	return d.Device.ReadAt(addr, p)
}

func (d *switchedDevice) WriteAt(addr uint64, p []byte) (time.Duration, error) {
	if d.faulting {
		return d.faulty.WriteAt(addr, p)
	}
	return d.Device.WriteAt(addr, p)
}

func (d *switchedDevice) PeekAt(addr uint64, p []byte) error {
	if d.faulting {
		return d.faulty.PeekAt(addr, p)
	}
	return d.Device.PeekAt(addr, p)
}

// FuzzPathORAM drives Read, Write, Update, Peek and snapshot→restore
// over a small tree from the input's op bytes. The first byte picks the
// geometry: Z = 1–4, with or without an engine, with an unbounded or a
// small stash. Every later byte is one op on one block; one op kind
// toggles transient device faults. Until an op fails, every read and
// Peek agrees with a map of what was written (never-written blocks read
// as zeros). Whatever happens, the stash stays within its capacity, a
// failure is stash.ErrOverflow or — while faulting — wraps
// device.ErrInjected, and nothing panics. After a failed op the
// contents are no longer checked: a failed access may lose its block.
// After an injected fault a sealed tree may also fail authentication: a
// failed bucket write leaves the bucket's counter advanced past the
// image the device still holds.
func FuzzPathORAM(f *testing.F) {
	f.Add([]byte{0x00, 6, 7, 13, 1, 2, 3, 4, 0, 6, 12, 18})
	f.Add([]byte{0x07, 1, 7, 13, 19, 0, 6, 12, 4, 2, 8, 14, 3, 9})
	f.Add([]byte{0x2b, 1, 7, 13, 19, 25, 31, 37, 43, 49, 55, 61, 2, 8, 14})
	f.Add([]byte{0x16, 1, 7, 5, 2, 8, 14, 20, 5, 0, 6, 4, 12, 18})
	f.Add([]byte{0xff, 1, 7, 13, 19, 25, 31, 5, 0, 6, 12, 18, 24, 30, 4, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 512 {
			return
		}
		const numBlocks, blockSize = 24, 8
		hdr, ops := in[0], in[1:]
		cfg := Config{
			NumBlocks: numBlocks, BlockSize: blockSize, BucketSlots: 1 + int(hdr&3),
			Amplification: 2, Seed: int64(hdr),
		}
		if hdr&4 != 0 {
			cfg.Engine = testEngine()
		}
		if hdr&8 != 0 {
			cfg.StashCapacity = 4 + int(hdr>>4)
		}
		newORAM := func(sim *device.Sim) (*ORAM, *switchedDevice) {
			dev := newSwitchedDevice(sim, int64(hdr))
			o, err := New(cfg, dev)
			if err != nil {
				t.Fatal(err)
			}
			return o, dev
		}
		sim := device.NewDRAM(1 << 20)
		o, dev := newORAM(sim)
		capacity := o.stash.Capacity()

		model := map[uint64][]byte{}
		want := func(id uint64) []byte {
			if b, ok := model[id]; ok {
				return b
			}
			return make([]byte, blockSize)
		}
		intact := true    // no op has failed: the model is the ORAM's contents
		injected := false // an op failed under an injected fault
		for i, b := range ops {
			id := uint64(b/6) % numBlocks
			var err error
			switch b % 6 {
			case 0:
				var got []byte
				got, _, err = o.Read(id)
				if err == nil && intact && !bytes.Equal(got, want(id)) {
					t.Fatalf("op %d: Read(%d) = %x, wrote %x", i, id, got, want(id))
				}
			case 1:
				data := bytes.Repeat([]byte{byte(i + 1)}, blockSize)
				if _, err = o.Write(id, data); err == nil {
					model[id] = data
				}
			case 2:
				next := append([]byte(nil), want(id)...)
				next[i%blockSize] ^= byte(i) | 1
				if _, err = o.Update(id, func(data []byte) { data[i%blockSize] ^= byte(i) | 1 }); err == nil {
					model[id] = next
				}
			case 3:
				if dev.faulting {
					continue // Peek reads the device unaccounted; a fault there proves nothing
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
			case 4:
				snap, serr := o.Snapshot()
				if serr != nil {
					t.Fatalf("op %d: Snapshot: %v", i, serr)
				}
				devSnap, serr := sim.Snapshot()
				if serr != nil {
					t.Fatalf("op %d: device Snapshot: %v", i, serr)
				}
				faulting := dev.faulting
				sim = device.NewDRAM(1 << 20)
				if serr := sim.Restore(devSnap); serr != nil {
					t.Fatalf("op %d: device Restore: %v", i, serr)
				}
				o, dev = newORAM(sim)
				dev.faulting = faulting
				if serr := o.Restore(snap); serr != nil {
					t.Fatalf("op %d: Restore: %v", i, serr)
				}
			case 5:
				dev.faulting = !dev.faulting
			}
			if err != nil {
				intact = false
				switch {
				case errors.Is(err, stash.ErrOverflow):
				case dev.faulting && errors.Is(err, device.ErrInjected):
					injected = true
				case injected && errors.Is(err, tee.ErrAuthFailed):
				default:
					t.Fatalf("op %d (faulting=%v): unexpected error %v", i, dev.faulting, err)
				}
			}
			if capacity > 0 && o.StashLen() > capacity {
				t.Fatalf("op %d: stash holds %d blocks, capacity %d", i, o.StashLen(), capacity)
			}
		}
	})
}
