package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bufferoram"
	"repro/internal/device"
	"repro/internal/fdp"
	"repro/internal/obliv"
	"repro/internal/persist"
	"repro/internal/raworam"
	"repro/internal/recmodel"
	"repro/internal/tee"
	"repro/internal/wire"
)

// kernelShape is the public shape of the traced rounds that the kernel
// replay reproduces: how big the union chunk was, how many main-ORAM
// accesses were sampled, the tree size, the roster and the codec.
type kernelShape struct {
	shards       int
	rowsPerShard uint64
	dim          int
	clients      int
	bufCapacity  int
	codec        wire.Codec // "" = no wire plane on this workload
	train        bool       // the workload runs local SGD
}

func (w *window) shape() kernelShape {
	g := w.cfg.Geom
	s := kernelShape{shards: 1, dim: g.Dim}
	switch w.cfg.Workload {
	case wORAMServe:
		s.rowsPerShard, s.clients = g.ServeRows, g.ServeClients
		s.bufCapacity = g.ServeClients * g.ServeFeatures
		return s
	case wTrainRemote:
		s.shards, s.codec = 2, wire.CodecPlaintext
	case wTrainCluster:
		s.shards, s.codec = 2, wire.CodecMaskedSparse
	}
	s.train = true
	s.rowsPerShard = (g.Items + uint64(s.shards) - 1) / uint64(s.shards)
	s.clients = g.ClientsPerRound
	s.bufCapacity = g.ClientsPerRound * g.MaxFeaturesPerClient
	return s
}

// timeMedian runs f reps times and reports the median duration of one
// run divided by perRun (f may batch perRun operations).
func timeMedian(reps, perRun int, f func() error) (time.Duration, error) {
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(t0)) / float64(perRun)
	}
	return time.Duration(median(samples)), nil
}

// replayKernels times the lower layers' public functions at the traced
// rounds' recorded shape, on simulated devices, and reports how much of
// fedora.self_ms their counts × times explain.
func (w *window) replayKernels(res *segmentResult) error {
	v, s := res.Values, w.shape()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	rng := rand.New(rand.NewSource(w.cfg.Seed*31 + 7))
	// Per shard and round: one union chunk of K/shards requests and
	// k_sampled/shards main-ORAM accesses in each direction.
	chunkK := int(w.meanK) / s.shards
	kSampled := int(w.meanKSampled) / s.shards
	if chunkK < 2 || kSampled < 1 {
		return fmt.Errorf("%s: kernel replay needs a recorded shape, got K=%d k=%d", w.cfg.Workload, chunkK, kSampled)
	}

	// obliv + fdp: a chunk with about half its requests repeated.
	chunk := make([]uint64, chunkK)
	for i := range chunk {
		chunk[i] = uint64(rng.Intn(chunkK/2 + 1))
	}
	var kUnion int
	unionD, err := timeMedian(5, 1, func() error { kUnion = obliv.Union(chunk).Size; return nil })
	if err != nil {
		return err
	}
	mech := fdp.Mechanism{Epsilon: 1}
	sampleD, err := timeMedian(5, 1, func() error { _, err := mech.Sample(chunkK, kUnion, rng); return err })
	if err != nil {
		return err
	}
	v["obliv.union_ms"], v["fdp.sample_us"] = us(unionD)/1e3, us(sampleD)

	// tee: one 4 KB bucket.
	var key [32]byte
	key[0] = byte(w.cfg.Seed)
	engine := tee.NewEngine(key)
	page := make([]byte, 4096-tee.TagSize)
	var sealed []byte
	sealD, err := timeMedian(200, 1, func() error { sealed = engine.Seal(page, 1, 1); return nil })
	if err != nil {
		return err
	}
	openD, err := timeMedian(200, 1, func() error { _, err := engine.Open(sealed, 1, 1); return err })
	if err != nil {
		return err
	}
	v["tee.seal_4k_us"], v["tee.open_4k_us"] = us(sealD), us(openD)

	// raworam + bufferoram over decorated simulated devices, so the time
	// their device calls took can be taken out as it is for fedora.self_ms.
	kt := newTracer()
	kt.on.Store(true)
	devNs := func() time.Duration {
		return time.Duration(kt.devTotals(devSSD).ns() + kt.devTotals(devDRAM).ns())
	}
	net := func(n int, f func() error) (time.Duration, error) {
		before, t0 := devNs(), time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		return (time.Since(t0) - (devNs() - before)) / time.Duration(n), nil
	}
	oram, err := raworam.New(raworam.Config{
		NumBlocks: s.rowsPerShard, BlockSize: 4 * s.dim, Seed: w.cfg.Seed,
		Engine: engine, HasScratchpad: w.cfg.Workload == wORAMServe,
	}, kt.wrapDevice("ssd", device.NewSSD(1<<62)), kt.wrapDevice("dram", device.NewDRAM(1<<62)))
	if err != nil {
		return err
	}
	ids := distinctIDs(rng, kSampled, s.rowsPerShard)
	blocks := make([][]byte, len(ids))
	// Two full rounds first: the first fills the stash and starts the
	// evictions a steady-state round pays for.
	var aoD, wbD time.Duration
	for pass := 0; pass < 3; pass++ {
		aoD, err = net(len(ids), func() error {
			for i, id := range ids {
				if blocks[i], _, err = oram.AOAccess(id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		wbD, err = net(len(ids), func() error {
			for i, id := range ids {
				if _, err := oram.WriteBack(id, blocks[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	v["raworam.ao_access_us"], v["raworam.writeback_us"] = us(aoD), us(wbD)

	buf, err := bufferoram.New(bufferoram.Config{
		Capacity: s.bufCapacity, Dim: s.dim, LearningRate: 1, Seed: w.cfg.Seed + 11,
	}, kt.wrapDevice("dram", device.NewDRAM(1<<62)))
	if err != nil {
		return err
	}
	entry, grad := make([]float32, s.dim), make([]float32, s.dim)
	for i := range grad {
		grad[i] = 0.25
	}
	each := func(f func(id uint64) error) func() error {
		return func() error {
			for _, id := range ids {
				if err := f(id); err != nil {
					return err
				}
			}
			return nil
		}
	}
	loadD, err := net(len(ids), each(func(id uint64) error { _, err := buf.Load(id, entry); return err }))
	if err != nil {
		return err
	}
	serveD, err := net(len(ids), each(func(id uint64) error { _, _, err := buf.Serve(id); return err }))
	if err != nil {
		return err
	}
	aggD, err := net(len(ids), each(func(id uint64) error { _, err := buf.Aggregate(id, grad, 1); return err }))
	if err != nil {
		return err
	}
	unloadD, err := net(len(ids), each(func(id uint64) error { _, _, err := buf.Unload(id); return err }))
	if err != nil {
		return err
	}
	v["bufferoram.load_us"], v["bufferoram.serve_us"] = us(loadD), us(serveD)
	v["bufferoram.aggregate_us"], v["bufferoram.unload_us"] = us(aggD), us(unloadD)

	// persist: an fsynced append of a begin-sized frame (8 bytes a request).
	walPath := filepath.Join(w.cfg.OutDir, fmt.Sprintf("kernel-%s-%d.wal", w.cfg.Workload, os.Getpid()))
	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		return err
	}
	defer os.Remove(walPath)
	frame := make([]byte, 8*int(w.meanK))
	appendD, err := timeMedian(20, 1, func() error { return wal.AppendRaw("begin", frame) })
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	v["persist.wal_append_us"] = us(appendD)

	if s.codec != "" {
		if err := w.replayWire(v, s, rng); err != nil {
			return err
		}
	}
	if s.train {
		w.replayTrainStep(v)
	}

	// Coverage: per round and shard, one union + one sample, and
	// k_sampled of each ORAM op; serves and aggregates scale with the
	// requests served (about K).
	perShard := unionD + sampleD +
		time.Duration(kSampled)*(aoD+wbD+loadD+unloadD) +
		time.Duration(chunkK)*(serveD+aggD)
	if self := v["fedora.self_ms"]; self > 0 {
		v["kernel.coverage_share"] = float64(perShard) * float64(s.shards) / 1e6 / self
	}
	return nil
}

func distinctIDs(rng *rand.Rand, n int, limit uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	ids := make([]uint64, 0, n)
	for len(ids) < n {
		id := rng.Uint64() % limit
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// replayWire encodes, aggregates and unmasks one round's uploads with
// the workload's codec at its roster size and rows per client.
func (w *window) replayWire(v map[string]float64, s kernelShape, rng *rand.Rand) error {
	numRows := s.rowsPerShard * uint64(s.shards)
	rowsPer := int(w.meanK) / s.clients
	// Clients draw from a pool the size of the round's sampled access
	// count, so the roster's union (the sparse codecs' shared domain) is
	// about as large as the traced rounds' was.
	pool := distinctIDs(rng, max(int(w.meanKSampled), rowsPer), numRows)
	clientRows := make([][]uint64, s.clients)
	unionSet := map[uint64]bool{}
	for c := range clientRows {
		rows := make([]uint64, rowsPer)
		for i, j := range rng.Perm(len(pool))[:rowsPer] {
			rows[i] = pool[j]
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
		clientRows[c] = rows
		for _, r := range rows {
			unionSet[r] = true
		}
	}
	union := make([]uint64, 0, len(unionSet))
	for r := range unionSet {
		union = append(union, r)
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	delta := make([]float32, s.dim)
	for i := range delta {
		delta[i] = 0.01
	}
	const round = 1
	plan, err := wire.NewPlan(wire.Params{
		Codec: s.codec, NumRows: numRows, Dim: s.dim, Round: round,
		Roster: s.clients, SessionKey: wire.DeriveSessionKey(w.cfg.Seed, round),
	}, union)
	if err != nil {
		return err
	}
	payloads := make([][]byte, s.clients)
	t0 := time.Now()
	for c, rows := range clientRows {
		deltas := make([][]float32, len(rows))
		for i := range deltas {
			deltas[i] = delta
		}
		if payloads[c], _, err = plan.Encode(c, rows, deltas, 30); err != nil {
			return err
		}
	}
	v["wire.encode_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	agg := wire.NewAggregator(numRows, s.dim, round)
	t0 = time.Now()
	for _, p := range payloads {
		if err := agg.Add(p); err != nil {
			return err
		}
	}
	v["wire.aggregate_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	t0 = time.Now()
	if _, err := agg.Unmask(nil); err != nil {
		return err
	}
	v["wire.unmask_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	return nil
}

// replayTrainStep times one local-SGD step on the trained workloads'
// model over a user's own samples.
func (w *window) replayTrainStep(v map[string]float64) {
	g := w.cfg.Geom
	model := recmodel.New(recmodel.Config{
		Dim: g.Dim, Hidden: g.Hidden, UsePrivate: true, LR: 0.1, Seed: w.cfg.Seed,
	})
	src := recmodel.FuncSource(func(uint64) ([]float32, bool) { return make([]float32, g.Dim), true })
	users := w.d.dataset.Users
	var steps int
	t0 := time.Now()
	for _, u := range users[:min(50, len(users))] {
		for _, smp := range u.Train {
			model.TrainStep(smp, src, recmodel.EmbGrad{})
			steps++
		}
	}
	if steps > 0 {
		v["recmodel.train_step_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(steps)
	}
}
