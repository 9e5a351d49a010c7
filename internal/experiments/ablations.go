package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/raworam"
	"repro/internal/recmodel"
	"repro/internal/sqrtoram"
)

// This file holds the design-choice ablations beyond the paper's
// figures: the eviction period A (Sec 4.4 Optimization 3), the union
// chunk size (Sec 4.2), and the ε-FDP shape Y (Sec 3.3 Observation 3).

// EvictPeriodRow is one point of the A sweep.
type EvictPeriodRow struct {
	A              int
	LifetimeMonths float64
	Overhead       time.Duration
}

// RunEvictPeriodAblation sweeps the eviction period A on the Small/10K
// FEDORA(ε=0) point. Larger A means fewer EO accesses — longer SSD life —
// at slightly higher DRAM cost per eviction (bigger stash scans).
func RunEvictPeriodAblation(o SweepOptions) ([]EvictPeriodRow, error) {
	var rows []EvictPeriodRow
	for _, a := range []int{5, 20, 40, 74, 92} {
		sc := dataset.Scales[0]
		clients := 100
		ctrl, err := fedora.New(fedora.Config{
			Backend:              fedora.BackendFedora,
			NumRows:              sc.Rows,
			Dim:                  sc.EntryBytes / 4,
			Epsilon:              0,
			EvictPeriod:          a,
			MaxClientsPerRound:   clients,
			MaxFeaturesPerClient: 100,
			Seed:                 o.Seed,
			Phantom:              true,
			HasScratchpad:        true,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed + 5))
		w := dataset.PerfWorkloads[1]
		rounds := o.Rounds
		if rounds == 0 {
			rounds = 2
		}
		var overhead time.Duration
		for r := 0; r < rounds; r++ {
			reqs := w.GenRound(sc.Rows, clients, 100, rng)
			rd, err := ctrl.BeginRound(reqs)
			if err != nil {
				return nil, err
			}
			st, err := rd.Finish()
			if err != nil {
				return nil, err
			}
			overhead += st.Total()
		}
		overhead /= time.Duration(rounds)
		ssd := ctrl.SSDDevice().Stats()
		written := ssd.BytesWritten / uint64(rounds)
		res := PerfResult{
			PerfConfig:         PerfConfig{Updates: 10000},
			MainORAMBytes:      ctrl.MainORAMBytes(),
			SSDWrittenPerRound: written,
			Overhead:           overhead,
		}
		rows = append(rows, EvictPeriodRow{
			A:              ctrl.MainEvictPeriod(),
			LifetimeMonths: res.LifetimeMonths(),
			Overhead:       overhead,
		})
	}
	return rows, nil
}

// RenderEvictPeriodAblation renders the A sweep.
func RenderEvictPeriodAblation(rows []EvictPeriodRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — eviction period A (Small table, 10K updates, FEDORA e=0)\n")
	tw := newTable(&b, "A", "Lifetime (months)", "Overhead")
	for _, r := range rows {
		tw.row(fmt.Sprint(r.A), fmt.Sprintf("%.2f", r.LifetimeMonths), fmtDuration(r.Overhead))
	}
	tw.flush()
	return b.String()
}

// ChunkRow is one point of the union chunk-size sweep.
type ChunkRow struct {
	ChunkSize     int
	UnionTime     time.Duration
	CrossChunkDup int
	Lost          int
	Chunks        int
}

// RunChunkAblation sweeps the union chunk size at K = 100K (Sec 4.2:
// smaller chunks cut the quadratic scan but duplicate entries across
// chunks and accumulate per-chunk mechanism noise).
func RunChunkAblation(o SweepOptions) ([]ChunkRow, error) {
	var rows []ChunkRow
	for _, chunk := range []int{2048, 8192, 16384, 65536} {
		sc := dataset.Scales[0]
		clients := 1000
		ctrl, err := fedora.New(fedora.Config{
			Backend:              fedora.BackendFedora,
			NumRows:              sc.Rows,
			Dim:                  sc.EntryBytes / 4,
			Epsilon:              1,
			ChunkSize:            chunk,
			MaxClientsPerRound:   clients,
			MaxFeaturesPerClient: 100,
			Seed:                 o.Seed,
			Phantom:              true,
			HasScratchpad:        true,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed + 9))
		w := dataset.PerfWorkloads[1]
		reqs := w.GenRound(sc.Rows, clients, 100, rng)
		rd, err := ctrl.BeginRound(reqs)
		if err != nil {
			return nil, err
		}
		st, err := rd.Finish()
		if err != nil {
			return nil, err
		}
		rows = append(rows, ChunkRow{
			ChunkSize:     chunk,
			UnionTime:     st.UnionTime,
			CrossChunkDup: st.CrossChunkDup,
			Lost:          st.Lost,
			Chunks:        st.Chunks,
		})
	}
	return rows, nil
}

// RenderChunkAblation renders the chunk sweep.
func RenderChunkAblation(rows []ChunkRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — union chunk size (Small table, 100K updates, FEDORA e=1)\n")
	tw := newTable(&b, "Chunk", "Chunks", "Union time", "Cross-chunk dups", "Lost entries")
	for _, r := range rows {
		tw.row(fmt.Sprint(r.ChunkSize), fmt.Sprint(r.Chunks), fmtDuration(r.UnionTime),
			fmt.Sprint(r.CrossChunkDup), fmt.Sprint(r.Lost))
	}
	tw.flush()
	return b.String()
}

// ShapeRow is one point of the Y-shape sweep.
type ShapeRow struct {
	Shape    string
	Epsilon  float64
	DummyPct float64
	LostPct  float64
}

// RunShapeAblation contrasts Y shapes at fixed ε on a real request
// stream (Sec 3.3 Observation 3: Y trades performance for accuracy).
func RunShapeAblation(o SweepOptions) ([]ShapeRow, error) {
	shapes := []fdp.Shape{fdp.Uniform{}, fdp.Square{LoFrac: 0.25}, fdp.Pow{Exp: 5}, fdp.Delta{}}
	var rows []ShapeRow
	// At chunk scale (K ≈ 10⁴) the shape only matters when the Eq. 3
	// distribution is wide, i.e. at small ε (Fig 3 uses K = 100, where
	// ε ≈ 0.5 gives the same relative width).
	const eps = 0.002
	for _, sh := range shapes {
		sc := dataset.Scales[0]
		clients := 100
		ctrl, err := fedora.New(fedora.Config{
			Backend:              fedora.BackendFedora,
			NumRows:              sc.Rows,
			Dim:                  sc.EntryBytes / 4,
			Epsilon:              eps,
			Shape:                sh,
			MaxClientsPerRound:   clients,
			MaxFeaturesPerClient: 100,
			Seed:                 o.Seed,
			Phantom:              true,
			HasScratchpad:        true,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed + 13))
		w := dataset.PerfWorkloads[1]
		var dummy, lost, union int
		rounds := 5
		for r := 0; r < rounds; r++ {
			reqs := w.GenRound(sc.Rows, clients, 100, rng)
			rd, err := ctrl.BeginRound(reqs)
			if err != nil {
				return nil, err
			}
			st, err := rd.Finish()
			if err != nil {
				return nil, err
			}
			dummy += st.Dummy
			lost += st.Lost
			union += st.KUnion
		}
		rows = append(rows, ShapeRow{
			Shape:    sh.Name(),
			Epsilon:  eps,
			DummyPct: 100 * float64(dummy) / float64(union),
			LostPct:  100 * float64(lost) / float64(union),
		})
	}
	return rows, nil
}

// RenderShapeAblation renders the shape sweep.
func RenderShapeAblation(rows []ShapeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — e-FDP shape Y at e=%.3f (Small table, 10K updates)\n", rows[0].Epsilon)
	tw := newTable(&b, "Shape", "Dummy", "Lost")
	for _, r := range rows {
		tw.row(r.Shape, fmt.Sprintf("%.2f%%", r.DummyPct), fmt.Sprintf("%.2f%%", r.LostPct))
	}
	tw.flush()
	return b.String()
}

// ScheduleRow is one point of the Optimization 1 ablation.
type ScheduleRow struct {
	Schedule        string
	SSDWrites       uint64
	SSDBytesWritten uint64
	LifetimeMonths  float64
}

// RunScheduleAblation quantifies FEDORA's Optimization 1 (the
// FL-friendly AO/EO split, Sec 4.4) by running identical per-round work
// — k fetches plus k write-backs on the Small table — through the
// FL-friendly schedule and through vanilla RAW ORAM semantics (every
// logical access = AO + scheduled EO).
func RunScheduleAblation(o SweepOptions) ([]ScheduleRow, error) {
	const k = 5000
	sc := dataset.Scales[0]
	run := func(vanilla bool) (ScheduleRow, error) {
		ssd := device.NewSim(device.PM9A1SSD, 1<<62)
		dram := device.NewDRAM(1 << 62)
		ram, err := raworam.New(raworam.Config{
			NumBlocks: sc.Rows, BlockSize: sc.EntryBytes,
			Seed: o.Seed, Phantom: true, HasScratchpad: true,
		}, ssd, dram)
		if err != nil {
			return ScheduleRow{}, err
		}
		rng := rand.New(rand.NewSource(o.Seed + 31))
		if vanilla {
			for i := 0; i < 2*k; i++ {
				if _, _, err := ram.VanillaAccess(rng.Uint64()%sc.Rows, nil); err != nil {
					return ScheduleRow{}, err
				}
			}
		} else {
			for i := 0; i < k; i++ {
				if _, _, err := ram.AOAccess(rng.Uint64() % sc.Rows); err != nil {
					return ScheduleRow{}, err
				}
			}
			for i := 0; i < k; i++ {
				if _, err := ram.WriteBack(rng.Uint64()%sc.Rows, nil); err != nil {
					return ScheduleRow{}, err
				}
			}
		}
		st := ssd.Stats()
		name := "fl-friendly (Opt 1)"
		if vanilla {
			name = "vanilla RAW ORAM"
		}
		life := costmodel.SSDLifetime(ram.RequiredBytes(), st.BytesWritten, FLRoundBaseline)
		return ScheduleRow{
			Schedule:        name,
			SSDWrites:       st.Writes,
			SSDBytesWritten: st.BytesWritten,
			LifetimeMonths:  costmodel.Months(life),
		}, nil
	}
	fl, err := run(false)
	if err != nil {
		return nil, err
	}
	vn, err := run(true)
	if err != nil {
		return nil, err
	}
	return []ScheduleRow{fl, vn}, nil
}

// RenderScheduleAblation renders the Optimization 1 comparison.
func RenderScheduleAblation(rows []ScheduleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — FL-friendly AO/EO schedule vs vanilla RAW ORAM (Opt 1, Small table, 5K fetches + 5K write-backs)\n")
	tw := newTable(&b, "Schedule", "SSD writes", "Bytes written", "Lifetime (months)")
	for _, r := range rows {
		tw.row(r.Schedule, fmt.Sprint(r.SSDWrites),
			fmt.Sprintf("%.1f MB", float64(r.SSDBytesWritten)/1e6),
			fmt.Sprintf("%.2f", r.LifetimeMonths))
	}
	tw.flush()
	return b.String()
}

// PoolingRow is one model-architecture ablation point.
type PoolingRow struct {
	Pooling string
	AUC     float64
}

// RunPoolingAblation contrasts mean pooling (DLRM-style) with target-
// aware attention pooling (the "Transformer-like" variant of Sec 2.1) on
// the MovieLens-like accuracy task, everything else fixed.
func RunPoolingAblation(o SweepOptions) ([]PoolingRow, error) {
	cfg := dataset.MovieLensConfig()
	cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 400, 150, 40
	ds := dataset.Generate(cfg)
	var rows []PoolingRow
	for _, pooling := range []recmodel.Pooling{recmodel.PoolMean, recmodel.PoolAttention} {
		tr, err := fl.New(fl.Config{
			Dataset: ds, Dim: 8, Hidden: 16, UsePrivate: true,
			Epsilon: fdp.EpsilonInfinity, Seed: o.Seed,
			ClientsPerRound: 40, LocalLR: 0.1, LocalEpochs: 2,
			Pooling: pooling,
		})
		if err != nil {
			return nil, err
		}
		rounds := 60
		if o.Quick {
			rounds = 20
		}
		res, err := tr.Run(rounds)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PoolingRow{Pooling: pooling.String(), AUC: res.AUC})
	}
	return rows, nil
}

// RenderPoolingAblation renders the architecture comparison.
func RenderPoolingAblation(rows []PoolingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — history pooling (MovieLens-like, eps=inf)\n")
	tw := newTable(&b, "Pooling", "AUC")
	for _, r := range rows {
		tw.row(r.Pooling, fmt.Sprintf("%.4f", r.AUC))
	}
	tw.flush()
	return b.String()
}

// FamilyRow compares ORAM families on identical per-round work.
type FamilyRow struct {
	Family          string
	SSDBytesWritten uint64
	LifetimeMonths  float64
}

// RunFamilyAblation reproduces the Sec 7 argument ("[the shuffling
// family] incurs frequent and large writes to storage, making them
// unsuitable for FL") in numbers: k reads + k write-backs on a 1M-row
// table through FEDORA's RAW ORAM vs a square-root (shuffling) ORAM.
func RunFamilyAblation(o SweepOptions) ([]FamilyRow, error) {
	const numRows, entryBytes, k = 1_000_000, 64, 2000
	var rows []FamilyRow

	// FEDORA's tree ORAM.
	{
		ssd := device.NewSim(device.PM9A1SSD, 1<<62)
		dram := device.NewDRAM(1 << 62)
		ram, err := raworam.New(raworam.Config{
			NumBlocks: numRows, BlockSize: entryBytes,
			Seed: o.Seed, Phantom: true, HasScratchpad: true,
		}, ssd, dram)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed + 41))
		for i := 0; i < k; i++ {
			if _, _, err := ram.AOAccess(rng.Uint64() % numRows); err != nil {
				return nil, err
			}
		}
		for i := 0; i < k; i++ {
			if _, err := ram.WriteBack(rng.Uint64()%numRows, nil); err != nil {
				return nil, err
			}
		}
		written := ssd.Stats().BytesWritten
		life := costmodel.SSDLifetime(ram.RequiredBytes(), written, FLRoundBaseline)
		rows = append(rows, FamilyRow{
			Family:          "tree (FEDORA RAW ORAM)",
			SSDBytesWritten: written,
			LifetimeMonths:  costmodel.Months(life),
		})
	}

	// The shuffling family.
	{
		ssd := device.NewSim(device.PM9A1SSD, 1<<62)
		sq, err := sqrtoram.New(sqrtoram.Config{
			NumBlocks: numRows, BlockSize: entryBytes,
			Seed: o.Seed, Phantom: true,
		}, ssd)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed + 41))
		for i := 0; i < 2*k; i++ {
			if _, _, err := sq.Read(rng.Uint64() % numRows); err != nil {
				return nil, err
			}
		}
		written := ssd.Stats().BytesWritten
		life := costmodel.SSDLifetime(sq.RequiredBytes(), written, FLRoundBaseline)
		rows = append(rows, FamilyRow{
			Family:          "shuffling (square-root ORAM)",
			SSDBytesWritten: written,
			LifetimeMonths:  costmodel.Months(life),
		})
	}
	return rows, nil
}

// RenderFamilyAblation renders the ORAM-family comparison.
func RenderFamilyAblation(rows []FamilyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — ORAM family (1M-row table, 2K fetches + 2K write-backs; Sec 7's argument)\n")
	tw := newTable(&b, "Family", "SSD bytes written", "Lifetime (months)")
	for _, r := range rows {
		tw.row(r.Family, fmt.Sprintf("%.1f MB", float64(r.SSDBytesWritten)/1e6),
			fmt.Sprintf("%.2f", r.LifetimeMonths))
	}
	tw.flush()
	return b.String()
}
