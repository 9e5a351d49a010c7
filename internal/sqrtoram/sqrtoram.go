// Package sqrtoram implements the classic square-root ORAM of Goldreich
// and Ostrovsky (reference [30] of the FEDORA paper) — the founding
// member of the *shuffling* ORAM family the paper's Sec 7 contrasts
// against tree ORAMs: "The latter incurs frequent and large writes to
// storage, making them unsuitable for FL."
//
// Layout: the n data blocks plus √n dummies live in untrusted storage
// under a secret pseudorandom permutation; a shelter of √n slots buffers
// recently touched blocks. An access obliviously scans the shelter, then
// reads either the permuted location of the target (on a shelter miss)
// or the next unused dummy (on a hit) — one storage read either way.
// After √n accesses the shelter is merged back and EVERYTHING is
// obliviously reshuffled under a fresh permutation: Θ((n+√n)·log²)
// block moves of write traffic, every √n accesses. That reshuffle is
// exactly the frequent, large write burst that murders SSD endurance,
// which the family ablation in internal/experiments quantifies against
// FEDORA's RAW ORAM.
//
// Key invariants: exactly one storage read per access regardless of
// shelter hit/miss; the shelter is scanned in full (obliviously) on
// every access; and after √n accesses the whole structure is
// re-permuted — the O(√n) amortized cost the family ablation measures.
package sqrtoram

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/device"
	"repro/internal/tee"
)

// Op selects read or write semantics.
type Op int

const (
	// OpRead returns the block contents.
	OpRead Op = iota
	// OpWrite replaces the block contents.
	OpWrite
)

const slotMetaSize = 9 // 8-byte ID + 1-byte valid

// Config parameterizes a square-root ORAM.
type Config struct {
	// NumBlocks is n.
	NumBlocks uint64
	// BlockSize is the payload bytes per block.
	BlockSize int
	// ShelterSlots overrides the shelter size (0 = ⌈√n⌉).
	ShelterSlots int
	// Seed drives permutations.
	Seed int64
	// Engine encrypts stored blocks (nil = plaintext).
	Engine *tee.Engine
	// Phantom enables accounting-only mode.
	Phantom bool
}

// Stats counts ORAM-level events.
type Stats struct {
	Accesses   uint64
	Reshuffles uint64
	Time       time.Duration
}

// ORAM is a square-root ORAM over a device.
type ORAM struct {
	cfg Config
	dev device.Device
	rng *rand.Rand

	shelterCap int
	total      uint64 // n + shelterCap (dummies)
	slotSize   int

	// perm maps logical position (block id for id < n; dummy index n+i)
	// to its physical slot this epoch. Host-side stand-in for the secret
	// permutation the controller derives from a PRF key.
	perm []uint64
	// shelter holds (id, data) pairs accessed this epoch.
	shelterIDs  []uint64
	shelterData [][]byte
	// contents is the functional backing state (what the encrypted slots
	// hold); phantom mode leaves it nil.
	contents map[uint64][]byte
	// sinceShuffle counts accesses in the current epoch.
	sinceShuffle int
	dummiesUsed  int

	stats Stats
}

// New creates the ORAM. Device capacity must hold (n+√n) slots.
func New(cfg Config, dev device.Device) (*ORAM, error) {
	if cfg.NumBlocks == 0 {
		return nil, errors.New("sqrtoram: NumBlocks must be positive")
	}
	if cfg.BlockSize <= 0 {
		return nil, errors.New("sqrtoram: BlockSize must be positive")
	}
	o := &ORAM{
		cfg: cfg,
		dev: dev,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	o.shelterCap = cfg.ShelterSlots
	if o.shelterCap == 0 {
		o.shelterCap = int(math.Ceil(math.Sqrt(float64(cfg.NumBlocks))))
	}
	o.total = cfg.NumBlocks + uint64(o.shelterCap)
	plain := slotMetaSize + cfg.BlockSize
	o.slotSize = plain
	if cfg.Engine != nil {
		o.slotSize = tee.SealedSize(plain)
	}
	if need := o.RequiredBytes(); dev.Capacity() < need {
		return nil, fmt.Errorf("sqrtoram: device capacity %d < required %d", dev.Capacity(), need)
	}
	if !cfg.Phantom {
		o.contents = make(map[uint64][]byte)
	}
	o.perm = make([]uint64, o.total)
	o.reseedPermutation()
	return o, nil
}

// RequiredBytes is the device footprint.
func (o *ORAM) RequiredBytes() uint64 { return o.total * uint64(o.slotSize) }

// ShelterCap exposes the shelter size (= the epoch length).
func (o *ORAM) ShelterCap() int { return o.shelterCap }

// Stats returns accumulated counters.
func (o *ORAM) Stats() Stats { return o.stats }

func (o *ORAM) reseedPermutation() {
	for i := range o.perm {
		o.perm[i] = uint64(i)
	}
	o.rng.Shuffle(len(o.perm), func(i, j int) { o.perm[i], o.perm[j] = o.perm[j], o.perm[i] })
}

// Access performs one square-root ORAM access.
func (o *ORAM) Access(op Op, id uint64, data []byte) ([]byte, time.Duration, error) {
	if id >= o.cfg.NumBlocks {
		return nil, 0, fmt.Errorf("sqrtoram: block %d out of range %d", id, o.cfg.NumBlocks)
	}
	if op == OpWrite && len(data) != o.cfg.BlockSize {
		return nil, 0, fmt.Errorf("sqrtoram: write size %d != block size %d", len(data), o.cfg.BlockSize)
	}
	o.stats.Accesses++
	var total time.Duration

	// Oblivious shelter scan: every shelter slot is touched (modelled as
	// device reads of the shelter region — the shelter lives off-chip too).
	total += o.dev.ChargeN(device.OpRead, o.slotSize, o.shelterCap)
	shelterIdx := -1
	for i, sid := range o.shelterIDs {
		if sid == id {
			shelterIdx = i
		}
	}

	// One main-array read: the target's permuted slot on a miss, the next
	// fresh dummy on a hit — indistinguishable either way.
	if shelterIdx >= 0 {
		dummy := o.cfg.NumBlocks + uint64(o.dummiesUsed)
		o.dummiesUsed++
		total += o.dev.Charge(device.OpRead, o.perm[dummy]*uint64(o.slotSize), o.slotSize)
	} else {
		total += o.dev.Charge(device.OpRead, o.perm[id]*uint64(o.slotSize), o.slotSize)
		var blk []byte
		if !o.cfg.Phantom {
			if v, ok := o.contents[id]; ok {
				blk = append([]byte(nil), v...)
			} else {
				blk = make([]byte, o.cfg.BlockSize)
			}
		} else {
			blk = make([]byte, o.cfg.BlockSize)
		}
		o.shelterIDs = append(o.shelterIDs, id)
		o.shelterData = append(o.shelterData, blk)
		shelterIdx = len(o.shelterIDs) - 1
		// The shelter append is an oblivious write pass over the shelter.
		total += o.dev.ChargeN(device.OpWrite, o.slotSize, o.shelterCap)
	}

	var out []byte
	if op == OpRead {
		out = append([]byte(nil), o.shelterData[shelterIdx]...)
	} else {
		o.shelterData[shelterIdx] = append(o.shelterData[shelterIdx][:0], data...)
		// Writing the updated block back into the shelter: one more
		// oblivious shelter pass.
		total += o.dev.ChargeN(device.OpWrite, o.slotSize, o.shelterCap)
	}

	o.sinceShuffle++
	if o.sinceShuffle >= o.shelterCap {
		total += o.reshuffle()
	}
	o.stats.Time += total
	return out, total, nil
}

// Read / Write are shorthands.
func (o *ORAM) Read(id uint64) ([]byte, time.Duration, error) { return o.Access(OpRead, id, nil) }

func (o *ORAM) Write(id uint64, data []byte) (time.Duration, error) {
	_, d, err := o.Access(OpWrite, id, data)
	return d, err
}

// reshuffle merges the shelter and re-permutes the whole array under a
// fresh permutation — the family's signature write burst. The oblivious
// shuffle is modelled as a sorting network over all slots: each of the
// ~log²(total)/2 rounds reads and writes every slot once.
func (o *ORAM) reshuffle() time.Duration {
	o.stats.Reshuffles++
	// Merge shelter contents into the logical state.
	if !o.cfg.Phantom {
		for i, id := range o.shelterIDs {
			o.contents[id] = o.shelterData[i]
		}
	}
	o.shelterIDs = o.shelterIDs[:0]
	o.shelterData = o.shelterData[:0]
	o.sinceShuffle = 0
	o.dummiesUsed = 0
	o.reseedPermutation()

	// Sorting-network pass count for total elements.
	log2 := 0
	for p := uint64(1); p < o.total; p <<= 1 {
		log2++
	}
	passes := log2 * (log2 + 1) / 2
	var d time.Duration
	d += o.dev.ChargeN(device.OpRead, o.slotSize, int(o.total)*passes)
	d += o.dev.ChargeN(device.OpWrite, o.slotSize, int(o.total)*passes)
	return d
}

// ReshuffleWriteBytes reports the write traffic of ONE reshuffle — the
// quantity the family ablation compares against RAW ORAM evictions.
func (o *ORAM) ReshuffleWriteBytes() uint64 {
	log2 := 0
	for p := uint64(1); p < o.total; p <<= 1 {
		log2++
	}
	passes := uint64(log2 * (log2 + 1) / 2)
	return o.total * passes * uint64(o.slotSize)
}

// Simulation note: unlike the tree ORAMs in this repository, the
// square-root ORAM keeps its functional contents host-side and charges
// all device traffic explicitly — its role here is the write-traffic
// comparison of Sec 7, not a second functional storage backend. The
// charged addresses and counts depend only on public quantities
// (shelter size, epoch schedule, permuted slot numbers).
