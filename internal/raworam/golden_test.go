package raworam

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/stash"
	"repro/internal/tee"
)

// pokeFault is an SSD whose failAt-th PokeAt (a bucket write) fails
// with device.ErrInjected in the middle of an eviction. Unless once is
// set, it is then dead: every data operation after it fails too.
type pokeFault struct {
	device.Device
	pokes, failAt int
	once, dead    bool
}

func (p *pokeFault) fail(op string, addr uint64) error {
	return fmt.Errorf("%s at %d: %w", op, addr, device.ErrInjected)
}

func (p *pokeFault) ReadAt(addr uint64, b []byte) (time.Duration, error) {
	if p.dead {
		return 0, p.fail("read", addr)
	}
	return p.Device.ReadAt(addr, b)
}

func (p *pokeFault) WriteAt(addr uint64, b []byte) (time.Duration, error) {
	if p.dead {
		return 0, p.fail("write", addr)
	}
	return p.Device.WriteAt(addr, b)
}

func (p *pokeFault) PeekAt(addr uint64, b []byte) error {
	if p.dead {
		return p.fail("peek", addr)
	}
	return p.Device.PeekAt(addr, b)
}

func (p *pokeFault) PokeAt(addr uint64, b []byte) error {
	if p.pokes++; p.dead || p.pokes == p.failAt {
		p.dead = !p.once
		return p.fail("poke", addr)
	}
	return p.Device.PokeAt(addr, b)
}

// evictionScript drives a seeded mix of AO batches of distinct ids that
// are in the ORAM, write-backs of ids that are out, dummy write-backs
// and short flushes, and writes every payload and every error into h.
// It goes on past failures — each error is part of the record — and
// returns the errors that came out of an eviction (an operation during
// which the EO count rose). After a failed batch it counts every id of
// the batch as out, as a caller that cannot tell which were removed
// would; writing one back then puts a second copy of it into the tree.
func evictionScript(t *testing.T, o *ORAM, rng *rand.Rand, steps int, h hash.Hash) []error {
	t.Helper()
	n := int(o.cfg.NumBlocks)
	out := map[uint64]bool{}
	var outList []uint64
	var evictErrs []error
	for step := 0; step < steps; step++ {
		eos := o.stats.EOAccesses
		var err error
		switch r := rng.Intn(20); {
		case r < 8 && len(out) < n/2:
			var ids []uint64
			for k := 1 + rng.Intn(8); len(ids) < k; {
				id := uint64(rng.Intn(n))
				if out[id] {
					continue
				}
				out[id] = true
				ids = append(ids, id)
			}
			dst := make([]byte, len(ids)*o.cfg.BlockSize)
			_, err = o.AOAccessBatch(ids, dst)
			h.Write(dst)
			outList = append(outList, ids...)
		case r < 16 && len(outList) > 0:
			i := rng.Intn(len(outList))
			id := outList[i]
			outList[i] = outList[len(outList)-1]
			outList = outList[:len(outList)-1]
			delete(out, id)
			data := make([]byte, o.cfg.BlockSize)
			rng.Read(data)
			_, err = o.WriteBack(id, data)
		case r < 19:
			_, err = o.WriteBackDummy()
		default:
			_, err = o.Flush(1 + rng.Intn(3))
		}
		fmt.Fprintf(h, "%d:%v;", step, err)
		if err != nil && o.stats.EOAccesses != eos {
			evictErrs = append(evictErrs, err)
		}
	}
	return evictErrs
}

// evictionSHA pins the RAW ORAM's state after evictionScript, by case:
// the ORAM snapshot (stash blocks and high-water mark, position map,
// VTree, counters, RNG, event counters), the SSD and DRAM images and
// counters, the engine's work counters, every address the devices
// recorded, and every payload and error the script saw. Recorded before
// the RAW ORAM's eviction became one read–plan–write pass.
var evictionSHA = map[string]string{
	"plain":             "bb8692265b1f6c3c2bcc4c08ee493fb4c3f54cabd444661048088b37ad03a52f",
	"plain-scratchpad":  "3ce4c6d5331825f2d2eaeaaaa84470f8adadb6b2a343ab04349c00e74f933d7f",
	"sealed":            "79f74c7339d85b32ea8d85d8c76d35d265b46e60340d6801e8b9a98eacc416ab",
	"sealed-scratchpad": "69d2b187e4f88dc819ca9f97d9c80bf5cb0215c6b63884eb9479b3f42bbd8b1a",
	"overflow":          "e4abae454a94821df6e05157fbc493ba9bc073c4951f9951185600979bf99e92",
	"poke-fault":        "a717826bcdd0c23615aca7a8546dc6a4ae40e205d39ab4f1c397e0e175ae82b4",
	// Recorded on the same parent build as the cases above, after them.
	"plain-poke-once":  "cb68301433446a5066ed0acd33585fc2d4fdbe3ceb0b8972d2910101827db93d",
	"sealed-poke-once": "c570978804980be39c97d46674813e27189e8a4ff409fc797a0bb9bb54565a74",
}

// TestGoldenEvictions: evictionScript over a tree about half full
// (Z = 4, A = 2), plain and sealed, with and without the scratchpad; a
// 16-block stash that overflows while evictions load their paths; an
// SSD whose 1 500th bucket write — mid-path, four levels up from the
// leaf — fails, after which every SSD operation fails; and, plain and
// sealed, that one bucket write failing alone. After it a plain tree
// shows the failed bucket's stale image as valid, so later evictions
// meet blocks that are also resident or on a shallower slot of their
// path, and a sealed one fails authentication on every path through it.
func TestGoldenEvictions(t *testing.T) {
	for _, name := range []string{"plain", "plain-scratchpad", "sealed", "sealed-scratchpad", "overflow", "poke-fault", "plain-poke-once", "sealed-poke-once"} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{NumBlocks: 500, BlockSize: 16, BucketSlots: 4, EvictPeriod: 2, Seed: 17,
				InitFn: func(id uint64) []byte {
					b := make([]byte, 16)
					b[0], b[15] = byte(id), byte(id>>8)
					return b
				}}
			var eng *tee.Engine
			if !strings.HasPrefix(name, "plain") {
				eng = testEngine()
				cfg.Engine = eng
			}
			cfg.HasScratchpad = name == "plain-scratchpad" || name == "sealed-scratchpad"
			if name == "overflow" {
				cfg.StashCapacity = 16
			}
			ssdSim, dramSim := device.NewSSD(1<<24), device.NewDRAM(1<<24)
			ssdRec, dramRec := device.NewRecorder(ssdSim), device.NewRecorder(dramSim)
			var ssd device.Device = ssdRec
			fault := &pokeFault{Device: ssdRec, failAt: 1500, once: strings.HasSuffix(name, "-once")}
			if strings.Contains(name, "poke") {
				ssd = fault
			}
			o, err := New(cfg, ssd, dramRec)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			evictErrs := evictionScript(t, o, rand.New(rand.NewSource(17)), 3000, h)
			switch name {
			case "overflow":
				if len(evictErrs) == 0 || !errors.Is(evictErrs[0], stash.ErrOverflow) {
					t.Fatalf("no eviction overflowed the stash: %v", evictErrs)
				}
			case "poke-fault", "plain-poke-once", "sealed-poke-once":
				if fault.pokes < fault.failAt || len(evictErrs) == 0 || !errors.Is(evictErrs[0], device.ErrInjected) {
					t.Fatalf("no bucket write failed an eviction: %v", evictErrs)
				}
			default:
				if len(evictErrs) != 0 {
					t.Fatalf("an eviction failed: %v", evictErrs[0])
				}
				if o.StashPeak() == 0 || o.stats.EOAccesses == 0 {
					t.Fatalf("the script evicted nothing (peak %d, %d EOs)", o.StashPeak(), o.stats.EOAccesses)
				}
			}
			snap, err := o.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ssdSnap, err := ssdSim.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			dramSnap, err := dramSim.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range [][]byte{snap, ssdSnap, dramSnap} {
				fmt.Fprintf(h, "%d:", len(b))
				h.Write(b)
			}
			if eng != nil {
				fmt.Fprintf(h, "%+v", eng.Stats())
			}
			for _, rec := range []*device.Recorder{ssdRec, dramRec} {
				fmt.Fprintf(h, "%v%v", rec.ReadAddrs(), rec.WriteAddrs())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != evictionSHA[name] {
				t.Errorf("sha256 = %s, want %s", got, evictionSHA[name])
			}
		})
	}
}
