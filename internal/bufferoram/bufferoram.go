package bufferoram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/device"
	"repro/internal/pathoram"
	"repro/internal/persist"
)

// Buffer is the buffer ORAM: a DRAM-resident Path ORAM over `capacity`
// slots whose blocks carry [entry | gradient-sum | count | state].
//
// Within a round the controller calls:
//
//	Load      (step ③) — place an entry fetched from the main ORAM
//	Serve     (step ④) — serve a user's download request
//	Aggregate (step ⑥) — fold one user's gradient into the sum
//	Unload    (step ⑦) — apply Post + learning rate, return the updated
//	                      entry for write-back to the main ORAM
//
// The capacity is sized from the maximum clients per round × maximum
// features per client so overflow is impossible (Sec 4.3); Load fails
// loudly if that contract is violated.
type Buffer struct {
	oram *pathoram.ORAM
	agg  Aggregator
	src  *persist.Source // checkpointable state behind rng
	rng  *rand.Rand

	dim      int // embedding dimension (floats)
	stateLen int
	capacity int
	lr       float32

	// slotOf maps a main-table row ID to its buffer slot this round; the
	// free list recycles slots across rounds. This mapping is controller
	// metadata (it lives with the position map in encrypted DRAM).
	slotOf map[uint64]int
	free   []int

	// scratch holds one block's floats: the Pre-processed gradient while
	// Aggregate folds it in, the decoded block while Unload runs Post.
	scratch []float32
	post    PostCtx // Unload's argument to the aggregator's Post

	round uint64
}

// Config parameterizes the buffer ORAM.
type Config struct {
	// Capacity is the maximum number of distinct entries resident at
	// once: max clients/round × max features/client.
	Capacity int
	// Dim is the embedding dimension (floats per entry); the main-ORAM
	// block size is 4·Dim bytes and buffer blocks are roughly twice that.
	Dim int
	// Aggregator selects the operation mode; nil = FedAvg.
	Aggregator Aggregator
	// LearningRate is η in Eq. 4.
	LearningRate float32
	// Seed drives ORAM path randomness and DP noise.
	Seed int64
	// Phantom enables accounting-only mode.
	Phantom bool
}

// New creates a buffer ORAM on the given DRAM device.
func New(cfg Config, dram device.Device) (*Buffer, error) {
	if cfg.Capacity <= 0 {
		return nil, errors.New("bufferoram: Capacity must be positive")
	}
	if cfg.Dim <= 0 {
		return nil, errors.New("bufferoram: Dim must be positive")
	}
	agg := cfg.Aggregator
	if agg == nil {
		agg = FedAvg{}
	}
	stateLen := agg.StateLen(cfg.Dim)
	blockFloats := 2*cfg.Dim + 1 + stateLen
	o, err := pathoram.New(pathoram.Config{
		NumBlocks:     uint64(cfg.Capacity),
		BlockSize:     4 * blockFloats,
		BucketSlots:   4,
		Amplification: 4,
		StashCapacity: 300 + cfg.Capacity/4,
		Seed:          cfg.Seed,
		Phantom:       cfg.Phantom,
	}, dram)
	if err != nil {
		return nil, fmt.Errorf("bufferoram: %w", err)
	}
	src := persist.NewSource(cfg.Seed + 17)
	b := &Buffer{
		oram:     o,
		agg:      agg,
		src:      src,
		rng:      rand.New(src),
		dim:      cfg.Dim,
		stateLen: stateLen,
		capacity: cfg.Capacity,
		lr:       cfg.LearningRate,
		slotOf:   make(map[uint64]int),
		scratch:  make([]float32, blockFloats),
	}
	for i := cfg.Capacity - 1; i >= 0; i-- {
		b.free = append(b.free, i)
	}
	return b, nil
}

// EntryBytes is the main-ORAM block size this buffer pairs with.
func (b *Buffer) EntryBytes() int { return 4 * b.dim }

// BlockBytes is the buffer ORAM's own block size.
func (b *Buffer) BlockBytes() int { return 4 * (2*b.dim + 1 + b.stateLen) }

// RequiredBytes is the DRAM footprint of the buffer ORAM tree.
func (b *Buffer) RequiredBytes() uint64 { return b.oram.RequiredBytes() }

// Resident returns how many entries are currently loaded.
func (b *Buffer) Resident() int { return len(b.slotOf) }

// AggregatorName reports the active operation mode.
func (b *Buffer) AggregatorName() string { return b.agg.Name() }

// SetRound advances the global round counter (used by LazyDP).
func (b *Buffer) SetRound(r uint64) { b.round = r }

// Load places entry (the main-ORAM block payload) into the buffer for
// this round, zeroing the aggregation slots. Returns the modelled time.
func (b *Buffer) Load(id uint64, entry []float32) (time.Duration, error) {
	if len(entry) != b.dim {
		return 0, fmt.Errorf("bufferoram: entry dim %d != %d", len(entry), b.dim)
	}
	if _, dup := b.slotOf[id]; dup {
		return 0, fmt.Errorf("bufferoram: entry %d already loaded", id)
	}
	if len(b.free) == 0 {
		return 0, fmt.Errorf("bufferoram: capacity %d exhausted — round sizing contract violated", b.capacity)
	}
	slot := b.free[len(b.free)-1]
	b.free = b.free[:len(b.free)-1]
	b.slotOf[id] = slot
	return b.oram.Update(uint64(slot), func(data []byte) {
		// Preserve aggregator state across rounds for LazyDP-style modes;
		// reset entry, sum and count.
		encodeF32s(data, entry)
		clear(data[4*b.dim : 4*(2*b.dim+1)])
	})
}

// LoadDummy performs an indistinguishable buffer access for a dummy main-
// ORAM read (k > k_union): same ORAM traffic, no slot consumed.
func (b *Buffer) LoadDummy() (time.Duration, error) {
	// Touch a random slot with a no-op update.
	slot := uint64(b.rng.Intn(b.capacity))
	return b.oram.Update(slot, func([]byte) {})
}

// Serve returns the entry for a user's download (step ④). Requests for
// entries that were lost (k < k_union) report ErrNotLoaded so the caller
// can apply its lost-entry policy.
var ErrNotLoaded = errors.New("bufferoram: entry not loaded this round")

// Serve reads the current entry value for id.
func (b *Buffer) Serve(id uint64) ([]float32, time.Duration, error) {
	slot, ok := b.slotOf[id]
	if !ok {
		// Still perform an indistinguishable access: to the observer every
		// request costs one buffer-ORAM touch whether or not it hits.
		d, err := b.LoadDummy()
		if err != nil {
			return nil, d, err
		}
		return nil, d, ErrNotLoaded
	}
	out := make([]float32, b.dim)
	d, err := b.oram.Update(uint64(slot), func(data []byte) {
		decodeF32s(out, data)
	})
	return out, d, err
}

// Aggregate folds one user's gradient for entry id into the sum half
// (step ⑥), applying the aggregator's Pre. nSamples is the user's local
// sample count n_c. Gradients for non-loaded entries burn an
// indistinguishable access and return ErrNotLoaded.
func (b *Buffer) Aggregate(id uint64, grad []float32, nSamples int) (time.Duration, error) {
	if len(grad) != b.dim {
		return 0, fmt.Errorf("bufferoram: grad dim %d != %d", len(grad), b.dim)
	}
	slot, ok := b.slotOf[id]
	if !ok {
		d, err := b.LoadDummy()
		if err != nil {
			return d, err
		}
		return d, ErrNotLoaded
	}
	g := b.scratch[:b.dim]
	copy(g, grad)
	b.agg.Pre(g, nSamples)
	return b.accumulate(slot, g, float32(nSamples))
}

// accumulate adds sum and count into slot's aggregation half, in place
// on the block bytes.
func (b *Buffer) accumulate(slot int, sum []float32, count float32) (time.Duration, error) {
	return b.oram.Update(uint64(slot), func(data []byte) {
		acc := data[4*b.dim:]
		for i, v := range sum {
			putF32(acc, i, getF32(acc, i)+v)
		}
		putF32(acc, b.dim, getF32(acc, b.dim)+count)
	})
}

// AggregateRaw folds an already-aggregated multi-client contribution
// for entry id into the sum half: sum is the pre-weighted gradient sum
// Σ_c n_c·Δθ_c and count is Σ_c n_c. Unlike Aggregate it bypasses the
// aggregator's Pre — the upload plane (internal/wire) pre-weights each
// client's words before masking, so applying Pre again would double-
// weight. Non-loaded entries burn an indistinguishable access and
// return ErrNotLoaded, exactly like Aggregate.
func (b *Buffer) AggregateRaw(id uint64, sum []float32, count float32) (time.Duration, error) {
	if len(sum) != b.dim {
		return 0, fmt.Errorf("bufferoram: sum dim %d != %d", len(sum), b.dim)
	}
	slot, ok := b.slotOf[id]
	if !ok {
		d, err := b.LoadDummy()
		if err != nil {
			return d, err
		}
		return d, ErrNotLoaded
	}
	return b.accumulate(slot, sum, count)
}

// Unload applies the post-aggregation update and returns the new entry
// value for write-back to the main ORAM (step ⑦). The slot is recycled.
func (b *Buffer) Unload(id uint64) ([]float32, time.Duration, error) {
	out := make([]float32, b.dim)
	d, err := b.UnloadTo(id, out)
	if err != nil {
		return nil, d, err
	}
	return out, d, nil
}

// UnloadTo is Unload into dst (len Dim), for a caller that writes the
// entry back before unloading the next and so needs no slice of its own.
func (b *Buffer) UnloadTo(id uint64, dst []float32) (time.Duration, error) {
	if len(dst) != b.dim {
		return 0, fmt.Errorf("bufferoram: UnloadTo dst dim %d != %d", len(dst), b.dim)
	}
	slot, ok := b.slotOf[id]
	if !ok {
		return 0, fmt.Errorf("bufferoram: Unload(%d): %w", id, ErrNotLoaded)
	}
	d, err := b.oram.Update(uint64(slot), func(data []byte) {
		f := b.scratch
		decodeF32s(f, data)
		entry := f[:b.dim]
		sum := f[b.dim : 2*b.dim]
		b.post.Round = b.round
		b.post.Count = f[2*b.dim]
		b.post.State = f[2*b.dim+1 : 2*b.dim+1+b.stateLen]
		b.post.Rng = b.rng
		delta := b.agg.Post(sum, &b.post)
		for i := range entry {
			entry[i] -= b.lr * delta[i]
		}
		copy(dst, entry)
		encodeF32s(data, f)
	})
	if err != nil {
		return d, err
	}
	delete(b.slotOf, id)
	b.free = append(b.free, slot)
	return d, nil
}

// UnloadDummy burns an indistinguishable access for a dummy write-back.
func (b *Buffer) UnloadDummy() (time.Duration, error) { return b.LoadDummy() }

// LoadedIDs returns the IDs currently resident (unspecified order).
func (b *Buffer) LoadedIDs() []uint64 {
	out := make([]uint64, 0, len(b.slotOf))
	for id := range b.slotOf {
		out = append(out, id)
	}
	return out
}

// Block payloads are little-endian float32s (stdlib only — no unsafe).

func getF32(data []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
}

func putF32(data []byte, i int, v float32) {
	binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(v))
}

// decodeF32s unpacks the first len(f) floats of a block payload into f.
func decodeF32s(f []float32, data []byte) {
	for i := range f {
		f[i] = getF32(data, i)
	}
}

// encodeF32s packs f into the front of the block payload.
func encodeF32s(data []byte, f []float32) {
	for i, v := range f {
		putF32(data, i, v)
	}
}
