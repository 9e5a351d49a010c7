package fedora

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/bufferoram"
	"repro/internal/device"
	"repro/internal/fdp"
	"repro/internal/obliv"
	"repro/internal/pathoram"
	"repro/internal/persist"
	"repro/internal/raworam"
	"repro/internal/storage"
	"repro/internal/tee"
)

// pipeline is one shard's complete FEDORA pipeline: its devices, main
// ORAM, buffer ORAM, ε-FDP mechanism and RNG streams, the open round and
// the finished round's pending write-back pass. A Controller routes over
// one pipeline per shard; the shard engine drives them through
// shard.Partition, which *pipeline implements.
//
// mu serializes every operation that touches round state or the ORAMs,
// so multiple trainer goroutines may stage downloads/uploads through the
// open round while the ORAMs themselves stay single-writer (the paper's
// controller is a single trusted unit; concurrency here is in the FL
// harness around it).
type pipeline struct {
	cfg Config
	mu  sync.Mutex // guards round state and the ORAM pipeline below

	ssd  device.Storage // main ORAM home (SSD profile, or DRAM profile for BackendDRAM); simulator- or file-backed per cfg.Storage
	dram *device.Sim    // buffer ORAM, VTree, stash, position map (always simulated)

	raw  *raworam.ORAM  // BackendFedora / BackendDRAM
	path *pathoram.ORAM // BackendPathORAMPlus
	buf  *bufferoram.Buffer
	// One row in flight between the main ORAM (bytes) and the buffer ORAM
	// (floats); both sides copy what they keep.
	rowFloats []float32
	rowBytes  []byte
	// The open round's plan: every chunk's main-ORAM ops back to back,
	// chunk i ending at chunkEnds[i]. Written by BeginRound, read by the
	// fetch pass, both under mu; kept for their capacity.
	plan      []fetchOp
	chunkEnds []int
	// One chunk's merged main-ORAM read (readChunk): the row ids asked for
	// and their payloads, back to back, of which the chunk's loads have
	// decoded the first chunkNext. The slices are kept for their capacity.
	chunkIDs  []uint64
	chunkRows []byte
	chunkNext int
	// The union's sorting arrays, grown to the largest chunk seen.
	unionScratch obliv.UnionScratch

	mech    fdp.Mechanism
	effEps  float64 // per-value epsilon after group privacy
	sel     *selector
	src     *persist.Source // checkpointable state behind rng
	selSrc  *persist.Source // checkpointable state behind the selector's rng
	rng     *rand.Rand
	engine  *tee.Engine // nil unless cfg.Encrypt
	scratch *tee.Scratchpad
	round   uint64         // rounds begun on this pipeline (part of its snapshot)
	cur     *pipelineRound // the open round (nil between rounds)
	acct    fdp.Accountant
	// staged is set by the controller before every begin: whether the
	// round is begun by a staged begin (see kickStageLocked).
	staged bool

	// evict is the finished round's write-back pass (see applyEvict) and
	// stream carries an unstaged one beside the unloads;
	// prefetchHits/prefetchWasted accumulate per-round staging outcomes
	// for /metrics.
	evict          evictPass
	stream         evictStream
	prefetchHits   uint64
	prefetchWasted uint64
	// workers is how many goroutines the round's ORAM work may use (see
	// Controller.New): the main-ORAM read splits across that many, and
	// above one the write-back streams beside the unloads.
	workers int
}

// newPipeline builds one pipeline, provisioning simulated devices sized
// to the ORAM (the paper reports SSD lifetime for an SSD the size of the
// ORAM).
func newPipeline(cfg Config) (*pipeline, error) {
	p := &pipeline{cfg: cfg, workers: 1}
	p.stream.ready = make(chan int, evictChunks)
	p.stream.run = p.streamEvict
	p.src = persist.NewSource(cfg.Seed + 3)
	p.rng = rand.New(p.src)
	p.selSrc = persist.NewSource(cfg.Seed + 29)
	p.sel = newSelector(cfg.Selection, rand.New(p.selSrc))

	var engine *tee.Engine
	if cfg.Encrypt {
		var key [32]byte
		key[0], key[1] = byte(cfg.Seed), byte(cfg.Seed>>8)
		engine = tee.NewEngine(key)
	}
	p.engine = engine
	p.scratch = tee.NewScratchpad(tee.DefaultScratchpadSize)
	if err := p.scratch.Reserve("key", 32); err != nil {
		return nil, err
	}
	if err := p.scratch.Reserve("root-counter", 8); err != nil {
		return nil, err
	}
	if cfg.HasScratchpad {
		if err := p.scratch.Reserve("eviction-scratch", p.scratch.Free()); err != nil {
			return nil, err
		}
	}

	blockSize := 4 * cfg.Dim
	p.rowFloats = make([]float32, cfg.Dim)
	p.rowBytes = make([]byte, blockSize)
	var initFn func(uint64) []byte
	if cfg.InitRow != nil {
		dim := cfg.Dim
		initFn = func(row uint64) []byte {
			f := cfg.InitRow(row)
			if len(f) != dim {
				panic(fmt.Sprintf("fedora: InitRow returned %d floats, want %d", len(f), dim))
			}
			b := make([]byte, 4*dim)
			encodeF32s(b, f)
			return b
		}
	}

	// Provision devices. The main device's profile depends on the backend.
	mainProfile := device.PM9A1SSD
	if cfg.Backend == BackendDRAM {
		mainProfile = device.DDR5DRAM
	}
	dram := device.NewDRAM(1 << 62)
	p.dram = dram
	// The ORAMs run over the (optionally fault-wrapped) device views;
	// p.ssd/p.dram stay the raw simulators so Snapshot/Restore and stats
	// bypass any injector.
	dramDev := p.wrapDevice("dram", dram)

	switch cfg.Backend {
	case BackendFedora, BackendDRAM:
		rawCfg := raworam.Config{
			NumBlocks:     cfg.NumRows,
			BlockSize:     blockSize,
			EvictPeriod:   cfg.EvictPeriod,
			Seed:          cfg.Seed,
			Engine:        engine,
			Phantom:       cfg.Phantom,
			HasScratchpad: cfg.HasScratchpad,
			InitFn:        initFn,
		}
		if cfg.BucketBytes > 0 {
			rawCfg.BucketSlots = bucketSlotsFor(cfg.BucketBytes, blockSize, engine != nil)
		}
		_, t, err := raworam.Layout(rawCfg, mainProfile.PageSize)
		if err != nil {
			return nil, err
		}
		p.ssd, err = storage.Open("ssd", mainProfile, t.RequiredBytes(), cfg.Storage)
		if err != nil {
			return nil, fmt.Errorf("fedora: main device: %w", err)
		}
		p.raw, err = raworam.New(rawCfg, p.wrapDevice("ssd", p.ssd), dramDev)
		if err != nil {
			p.ssd.Close()
			return nil, err
		}
	case BackendPathORAMPlus:
		// SSD-friendly layout (the prior-work optimizations the paper
		// adopts, Sec 6.1): buckets sized to fill whole 4 KB pages rather
		// than Path ORAM's classic Z=4, so no page capacity is wasted.
		pageBytes := cfg.BucketBytes
		if pageBytes == 0 {
			pageBytes = 4096
		}
		pCfg := pathoram.Config{
			NumBlocks:         cfg.NumRows,
			BlockSize:         blockSize,
			BucketSlots:       bucketSlotsFor(pageBytes, blockSize, engine != nil),
			Amplification:     8,
			Seed:              cfg.Seed,
			Engine:            engine,
			Phantom:           cfg.Phantom,
			AlignBucketToPage: true,
			InitFn:            initFn,
		}
		_, t, err := pathoram.Layout(pCfg, mainProfile.PageSize)
		if err != nil {
			return nil, err
		}
		p.ssd, err = storage.Open("ssd", mainProfile, t.RequiredBytes(), cfg.Storage)
		if err != nil {
			return nil, fmt.Errorf("fedora: main device: %w", err)
		}
		p.path, err = pathoram.New(pCfg, p.wrapDevice("ssd", p.ssd))
		if err != nil {
			p.ssd.Close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fedora: unknown backend %v", cfg.Backend)
	}

	buf, err := bufferoram.New(bufferoram.Config{
		Capacity:     cfg.MaxClientsPerRound * cfg.MaxFeaturesPerClient,
		Dim:          cfg.Dim,
		Aggregator:   cfg.Aggregator,
		LearningRate: cfg.LearningRate,
		Seed:         cfg.Seed + 11,
		Phantom:      cfg.Phantom,
	}, dramDev)
	if err != nil {
		p.ssd.Close()
		return nil, err
	}
	p.buf = buf

	// ε-FDP mechanism. ε = 0 means perfect FDP: the paper achieves it
	// with the Delta shape (always k = K). Group privacy divides ε by the
	// padded per-client feature count when hiding the count itself.
	p.effEps = cfg.EffectiveEpsilon()
	shape := cfg.Shape
	if cfg.Epsilon == 0 {
		shape = fdp.Delta{}
	}
	p.mech = fdp.Mechanism{Epsilon: p.effEps, Shape: shape}
	return p, nil
}

// setWorkers sets how many goroutines the pipeline's round may use.
func (p *pipeline) setWorkers(n int) {
	p.workers = n
	if p.raw != nil {
		p.raw.SetReadWorkers(n)
	}
}

// wrapDevice applies Config.WrapDevice, tolerating nil returns.
func (p *pipeline) wrapDevice(name string, d device.Device) device.Device {
	if p.cfg.WrapDevice == nil {
		return d
	}
	if w := p.cfg.WrapDevice(name, d); w != nil {
		return w
	}
	return d
}

// bucketSlotsFor derives Z so the stored bucket fits bucketBytes.
func bucketSlotsFor(bucketBytes, blockSize int, encrypted bool) int {
	avail := bucketBytes
	if encrypted {
		avail -= tee.TagSize
	}
	z := avail / (12 + blockSize)
	if z < 2 {
		z = 2
	}
	return z
}

// Abort implements shard.Partition: it force-closes any open round
// WITHOUT running write-back, leaving the pipeline quiesced but the
// in-memory ORAM state dirty — a Restore is expected to follow. A begin
// in flight finishes its fetch pass first (it holds mu).
func (p *pipeline) Abort() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != nil {
		p.cur.done = true // stragglers see ErrRoundFinished, not dirty state
		p.cur = nil
	}
	p.evict.live = false // a half-applied pass leaves the ORAM dirty; Restore follows
}

// mainORAMBytes is the main ORAM's device footprint.
func (p *pipeline) mainORAMBytes() uint64 {
	if p.path != nil {
		return p.path.RequiredBytes()
	}
	return p.raw.RequiredBytes()
}

// dramResidentBytes is the DRAM capacity the pipeline needs: buffer ORAM
// + position map + VTree (FEDORA backends) + stash headroom.
func (p *pipeline) dramResidentBytes() uint64 {
	total := p.buf.RequiredBytes()
	total += p.cfg.NumRows * 4 // position map
	if p.raw != nil {
		total += p.raw.VTreeBytes()
	}
	return total
}

// Close drains any deferred write-back pass and releases the devices.
func (p *pipeline) Close() error {
	p.mu.Lock()
	err := p.drain()
	p.mu.Unlock()
	if serr := p.ssd.Close(); serr != nil && err == nil {
		err = serr
	}
	if derr := p.dram.Close(); derr != nil && err == nil {
		err = derr
	}
	return err
}

// PeekRow reads one of the pipeline's (local) rows without ORAM traffic.
func (p *pipeline) PeekRow(row uint64) ([]float32, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// A deferred write-back pass holds finished-round updates the peek
	// must observe; drain it so evaluation sees the post-round model.
	if err := p.drain(); err != nil {
		return nil, err
	}
	var (
		payload []byte
		err     error
	)
	if p.path != nil {
		payload, err = p.path.Peek(row)
	} else {
		payload, err = p.raw.Peek(row)
	}
	if err != nil {
		return nil, err
	}
	out := make([]float32, p.cfg.Dim)
	decodeF32s(out, payload)
	return out, nil
}

// encodeF32s packs floats little-endian (shared with bufferoram's codec).
func encodeF32s(data []byte, f []float32) {
	for i, v := range f {
		binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(v))
	}
}

// decodeF32s unpacks len(f) floats from data into f.
func decodeF32s(f []float32, data []byte) {
	for i := range f {
		f[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
}
