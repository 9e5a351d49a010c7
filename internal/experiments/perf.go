// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec 6). Each Run* function executes the corresponding
// sweep on the simulated devices and renders the same rows/series the
// paper reports. See DESIGN.md's experiment index for the mapping and
// EXPERIMENTS.md for paper-vs-measured results.
//
// Key invariants: every Run* function is deterministic for a fixed seed,
// and rows render in the paper's order so outputs can be diffed against
// EXPERIMENTS.md across PRs.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/fdp"
	"repro/internal/fedora"
)

// FLRoundBaseline is the assumed non-ORAM latency of one FL round
// (communication + user-side training): 2 minutes, following the
// real-world numbers the paper cites (Sec 6.1).
const FLRoundBaseline = 2 * time.Minute

// System identifies one of the compared designs.
type System struct {
	Name    string
	Backend fedora.Backend
	Epsilon float64 // fedora semantics: 0 = perfect FDP (k = K)
}

// Systems compared throughout Sec 6.2–6.5.
var (
	SysPathORAMPlus = System{Name: "PathORAM+", Backend: fedora.BackendPathORAMPlus}
	SysFedoraEps0   = System{Name: "FEDORA(e=0)", Backend: fedora.BackendFedora, Epsilon: 0}
	SysFedoraEps1   = System{Name: "FEDORA(e=1)", Backend: fedora.BackendFedora, Epsilon: 1}
	SysDRAM         = System{Name: "DRAM-based", Backend: fedora.BackendDRAM, Epsilon: 1}
)

// PerfConfig selects one point of the performance sweep.
type PerfConfig struct {
	Scale    dataset.TableScale
	Updates  int // K per round
	System   System
	Workload dataset.Workload
	// Rounds to simulate (≥2 recommended; steady-state averaging).
	Rounds int
	// FeaturesPerClient splits K into clients (default 100, the paper's
	// per-user feature-count regime).
	FeaturesPerClient int
	// HasScratchpad models the 4 KB on-chip scratch space (default true).
	NoScratchpad bool
	// BucketBytes overrides the SSD bucket size (Sec 6.6 ablation).
	BucketBytes int
	Seed        int64
}

// PerfResult is one measured point.
type PerfResult struct {
	PerfConfig
	// KUnion / KSampled are per-round averages.
	KUnion, KSampled float64
	// SSDWrittenPerRound drives the wear model.
	SSDWrittenPerRound uint64
	// SSDBusyPerRound is the SSD's modelled active time per round.
	SSDBusyPerRound time.Duration
	// Overhead is the controller-added latency per round, with its
	// per-phase breakdown (union ①, read ③, update ⑦).
	Overhead   time.Duration
	UnionTime  time.Duration
	ReadTime   time.Duration
	UpdateTime time.Duration
	// MainORAMBytes / DRAMBytes are the provisioned capacities.
	MainORAMBytes uint64
	DRAMBytes     uint64
}

// LifetimeMonths is the Fig 7 metric: expected SSD lifetime with the
// SSD sized equal to the ORAM.
func (r PerfResult) LifetimeMonths() float64 {
	life := costmodel.SSDLifetime(r.MainORAMBytes, r.SSDWrittenPerRound, r.RoundDuration())
	return costmodel.Months(life)
}

// RoundDuration is the end-to-end round latency.
func (r PerfResult) RoundDuration() time.Duration {
	return FLRoundBaseline + r.Overhead
}

// OverheadPct is the Fig 8 metric: added latency relative to the
// 2-minute baseline round.
func (r PerfResult) OverheadPct() float64 {
	return 100 * float64(r.Overhead) / float64(FLRoundBaseline)
}

// Design converts the result into the Fig 9 cost-model input.
func (r PerfResult) Design() costmodel.Design {
	d := costmodel.Design{
		Name:                    r.System.Name,
		DRAMBytes:               r.DRAMBytes,
		RoundDuration:           r.RoundDuration(),
		SSDBytesWrittenPerRound: r.SSDWrittenPerRound,
		SSDBusyPerRound:         r.SSDBusyPerRound,
	}
	if r.System.Backend == fedora.BackendDRAM {
		// The DRAM design holds the main ORAM in DRAM.
		d.DRAMBytes += r.MainORAMBytes
		d.SSDBytesWrittenPerRound = 0
		d.SSDBusyPerRound = 0
	} else {
		d.SSDBytes = r.MainORAMBytes
	}
	return d
}

// RunPerf executes one performance point in phantom (accounting-only)
// mode and averages per-round statistics.
func RunPerf(cfg PerfConfig) (PerfResult, error) {
	if cfg.Rounds == 0 {
		cfg.Rounds = 2
	}
	if cfg.FeaturesPerClient == 0 {
		cfg.FeaturesPerClient = 100
	}
	clients := cfg.Updates / cfg.FeaturesPerClient
	if clients < 1 {
		clients = 1
	}
	dim := cfg.Scale.EntryBytes / 4
	ctrl, err := fedora.New(fedora.Config{
		Backend:              cfg.System.Backend,
		NumRows:              cfg.Scale.Rows,
		Dim:                  dim,
		Epsilon:              cfg.System.Epsilon,
		HideCount:            cfg.Workload.HideCount,
		MaxClientsPerRound:   clients,
		MaxFeaturesPerClient: cfg.FeaturesPerClient,
		Seed:                 cfg.Seed,
		Phantom:              true,
		HasScratchpad:        !cfg.NoScratchpad,
		BucketBytes:          cfg.BucketBytes,
	})
	if err != nil {
		return PerfResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	res := PerfResult{
		PerfConfig:    cfg,
		MainORAMBytes: ctrl.MainORAMBytes(),
		DRAMBytes:     ctrl.DRAMResidentBytes(),
	}
	var totUnion, totSampled int
	var totOverhead time.Duration
	for round := 0; round < cfg.Rounds; round++ {
		reqs := cfg.Workload.GenRound(cfg.Scale.Rows, clients, cfg.FeaturesPerClient, rng)
		r, err := ctrl.BeginRound(reqs)
		if err != nil {
			return res, err
		}
		// The perf study measures the server-side ORAM pipeline (steps ①,
		// ③, ⑦). Steps ④/⑥ (serving users and collecting gradients)
		// overlap with the 2-minute client-side window and are not on the
		// controller's critical path.
		st, err := r.Finish()
		if err != nil {
			return res, err
		}
		totUnion += st.KUnion
		totSampled += st.KSampled
		totOverhead += st.Total()
		res.UnionTime += st.UnionTime
		res.ReadTime += st.ReadTime
		res.UpdateTime += st.UpdateTime
	}
	ssd := ctrl.SSDDevice().Stats()
	res.KUnion = float64(totUnion) / float64(cfg.Rounds)
	res.KSampled = float64(totSampled) / float64(cfg.Rounds)
	res.SSDWrittenPerRound = ssd.BytesWritten / uint64(cfg.Rounds)
	res.SSDBusyPerRound = ssd.BusyTime / time.Duration(cfg.Rounds)
	res.Overhead = totOverhead / time.Duration(cfg.Rounds)
	res.UnionTime /= time.Duration(cfg.Rounds)
	res.ReadTime /= time.Duration(cfg.Rounds)
	res.UpdateTime /= time.Duration(cfg.Rounds)
	return res, nil
}

// SweepOptions trims the full sweep for quick runs.
type SweepOptions struct {
	// Quick restricts to the Small/10K point and two workloads.
	Quick bool
	// Rounds per point (default 2).
	Rounds int
	Seed   int64
}

func (o SweepOptions) scales() []dataset.TableScale {
	if o.Quick {
		return dataset.Scales[:1]
	}
	return dataset.Scales
}

func (o SweepOptions) updates() []int {
	if o.Quick {
		return dataset.UpdateCounts[:1]
	}
	return dataset.UpdateCounts
}

func (o SweepOptions) workloads() []dataset.Workload {
	if o.Quick {
		return []dataset.Workload{dataset.PerfWorkloads[0], dataset.PerfWorkloads[4]}
	}
	return dataset.PerfWorkloads
}

// SweepPoint couples a result with its sweep coordinates for rendering.
type SweepPoint struct {
	Scale    string
	Updates  int
	System   string
	Workload string // "All" for workload-independent systems
	Result   PerfResult
}

// RunSweep executes the Fig 7/8 sweep: for each (scale, updates), Path
// ORAM+ and FEDORA(ε=0) once (their behaviour is workload-independent —
// k = K always), and FEDORA(ε=1) once per workload.
func RunSweep(o SweepOptions) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, sc := range o.scales() {
		for _, upd := range o.updates() {
			for _, sys := range []System{SysPathORAMPlus, SysFedoraEps0} {
				res, err := RunPerf(PerfConfig{
					Scale: sc, Updates: upd, System: sys,
					Workload: dataset.PerfWorkloads[0], // irrelevant: k = K
					Rounds:   o.Rounds, Seed: o.Seed,
				})
				if err != nil {
					return nil, err
				}
				out = append(out, SweepPoint{sc.Name, upd, sys.Name, "All", res})
			}
			for _, w := range o.workloads() {
				res, err := RunPerf(PerfConfig{
					Scale: sc, Updates: upd, System: SysFedoraEps1,
					Workload: w, Rounds: o.Rounds, Seed: o.Seed,
				})
				if err != nil {
					return nil, err
				}
				out = append(out, SweepPoint{sc.Name, upd, SysFedoraEps1.Name, w.Name, res})
			}
		}
	}
	return out, nil
}

// RenderFig7 renders the SSD-lifetime table (Fig 7).
func RenderFig7(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — Expected SSD lifetime (months); SSD sized equal to the ORAM\n")
	tw := newTable(&b, "Scale", "Updates/round", "System", "Workload", "Lifetime (months)", "vs PathORAM+")
	base := map[string]float64{}
	for _, p := range points {
		if p.System == SysPathORAMPlus.Name {
			base[p.Scale+"|"+fmt.Sprint(p.Updates)] = p.Result.LifetimeMonths()
		}
	}
	type group struct {
		scale   string
		updates int
	}
	var lastGroup group
	flushGeomean := func(g group) {
		// The paper's Geomean bar: FEDORA(ε=1) across workloads.
		gm, ok := GeomeanLifetime(points, g.scale, g.updates, SysFedoraEps1.Name)
		if !ok {
			return
		}
		rel := ""
		if b0 := base[g.scale+"|"+fmt.Sprint(g.updates)]; b0 > 0 {
			rel = fmt.Sprintf("%.1fx", gm/b0)
		}
		tw.row(g.scale, fmt.Sprint(g.updates), SysFedoraEps1.Name, "Geomean",
			fmt.Sprintf("%.2f", gm), rel)
	}
	for i, p := range points {
		g := group{p.Scale, p.Updates}
		if i > 0 && g != lastGroup {
			flushGeomean(lastGroup)
		}
		lastGroup = g
		life := p.Result.LifetimeMonths()
		rel := ""
		if b0 := base[p.Scale+"|"+fmt.Sprint(p.Updates)]; b0 > 0 && p.System != SysPathORAMPlus.Name {
			rel = fmt.Sprintf("%.1fx", life/b0)
		}
		tw.row(p.Scale, fmt.Sprint(p.Updates), p.System, p.Workload,
			fmt.Sprintf("%.2f", life), rel)
	}
	if len(points) > 0 {
		flushGeomean(lastGroup)
	}
	tw.flush()
	return b.String()
}

// RenderFig8 renders the round-latency-overhead table (Fig 8).
func RenderFig8(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — ORAM overhead per FL round (vs the %v baseline round)\n", FLRoundBaseline)
	tw := newTable(&b, "Scale", "Updates/round", "System", "Workload", "Overhead", "Overhead %")
	for _, p := range points {
		tw.row(p.Scale, fmt.Sprint(p.Updates), p.System, p.Workload,
			fmtDuration(p.Result.Overhead), fmt.Sprintf("%.1f%%", p.Result.OverheadPct()))
	}
	tw.flush()
	return b.String()
}

// RenderFig8Breakdown renders the per-phase decomposition of each
// point's overhead — the stacked-bar view of Figure 8 (union scan ①,
// download ③, write-back ⑦).
func RenderFig8Breakdown(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (breakdown) — controller overhead by phase\n")
	tw := newTable(&b, "Scale", "Updates/round", "System", "Workload", "Union", "Read", "Update", "Total")
	for _, p := range points {
		r := p.Result
		tw.row(p.Scale, fmt.Sprint(p.Updates), p.System, p.Workload,
			fmtDuration(r.UnionTime), fmtDuration(r.ReadTime),
			fmtDuration(r.UpdateTime), fmtDuration(r.Overhead))
	}
	tw.flush()
	return b.String()
}

// Fig9Row is one normalized cost/power/energy triple, plus the carbon
// extension.
type Fig9Row struct {
	Scale, System, Workload string
	Rel                     costmodel.Relative
	RelCarbon               float64
}

// RunFig9 computes the Fig 9 comparison: each SSD design normalized by
// the DRAM-based design at the same scale/updates/workload.
func RunFig9(o SweepOptions) ([]Fig9Row, error) {
	var rows []Fig9Row
	// The paper pairs Small/10K, Medium/100K, Large/1M for Fig 9's three
	// groups.
	pairs := [][2]int{{0, 0}, {1, 1}, {2, 2}}
	if o.Quick {
		pairs = pairs[:1]
	}
	for _, pr := range pairs {
		sc := dataset.Scales[pr[0]]
		upd := dataset.UpdateCounts[pr[1]]
		w := dataset.PerfWorkloads[1] // Taobao hide-val as representative
		dramRes, err := RunPerf(PerfConfig{Scale: sc, Updates: upd, System: SysDRAM, Workload: w, Rounds: o.Rounds, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		base := dramRes.Design()
		for _, sys := range []System{SysPathORAMPlus, SysFedoraEps0, SysFedoraEps1} {
			res, err := RunPerf(PerfConfig{Scale: sc, Updates: upd, System: sys, Workload: w, Rounds: o.Rounds, Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			d := res.Design()
			rows = append(rows, Fig9Row{
				Scale: sc.Name, System: sys.Name, Workload: w.Name,
				Rel:       d.RelativeTo(base),
				RelCarbon: d.CarbonPerYear() / base.CarbonPerYear(),
			})
		}
	}
	return rows, nil
}

// RenderFig9 renders the normalized cost table (with a carbon column —
// our extension of the Sec 6.5 sustainability argument).
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — Hardware cost / power / energy / carbon normalized to the DRAM-based design\n")
	tw := newTable(&b, "Scale", "System", "HW cost", "Power", "Energy/round", "Carbon/yr")
	for _, r := range rows {
		tw.row(r.Scale, r.System,
			fmt.Sprintf("%.1f%%", 100*r.Rel.HardwareCost),
			fmt.Sprintf("%.1f%%", 100*r.Rel.Power),
			fmt.Sprintf("%.1f%%", 100*r.Rel.Energy),
			fmt.Sprintf("%.1f%%", 100*r.RelCarbon))
	}
	tw.flush()
	return b.String()
}

// Fig10Row is one scratchpad-ablation point.
type Fig10Row struct {
	Scale   string
	Updates int
	// With / Without are round overheads with and without the 4 KB
	// on-chip scratch space; Slowdown = Without/With.
	With, Without time.Duration
	Slowdown      float64
}

// RunFig10 reproduces the scratchpad ablation: the paper pairs
// Small/10K, Medium/100K, Large/1M.
func RunFig10(o SweepOptions) ([]Fig10Row, error) {
	pairs := [][2]int{{0, 0}, {1, 1}, {2, 2}}
	if o.Quick {
		pairs = pairs[:1]
	}
	var rows []Fig10Row
	for _, pr := range pairs {
		sc := dataset.Scales[pr[0]]
		upd := dataset.UpdateCounts[pr[1]]
		w := dataset.PerfWorkloads[2]
		with, err := RunPerf(PerfConfig{Scale: sc, Updates: upd, System: SysFedoraEps1, Workload: w, Rounds: o.Rounds, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		without, err := RunPerf(PerfConfig{Scale: sc, Updates: upd, System: SysFedoraEps1, Workload: w, Rounds: o.Rounds, Seed: o.Seed, NoScratchpad: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			Scale: sc.Name, Updates: upd,
			With: with.Overhead, Without: without.Overhead,
			Slowdown: float64(without.Overhead) / float64(with.Overhead),
		})
	}
	return rows, nil
}

// RenderFig10 renders the ablation table.
func RenderFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 — FEDORA latency with vs without the 4 KB on-chip scratchpad\n")
	tw := newTable(&b, "Scale", "Updates/round", "With SRAM", "No SRAM", "Slowdown")
	for _, r := range rows {
		tw.row(r.Scale, fmt.Sprint(r.Updates), fmtDuration(r.With), fmtDuration(r.Without),
			fmt.Sprintf("%.2fx", r.Slowdown))
	}
	tw.flush()
	return b.String()
}

// BucketAblationRow is one Sec 6.6 bucket-size point.
type BucketAblationRow struct {
	BucketBytes    int
	EvictPeriod    int
	LifetimeMonths float64
	Overhead       time.Duration
}

// RunBucketAblation reproduces the Sec 6.6 experiment: growing the
// bucket from 4 KB to 16 KB on the Small table trades latency for
// lifetime.
func RunBucketAblation(o SweepOptions) ([]BucketAblationRow, error) {
	var rows []BucketAblationRow
	for _, bb := range []int{4096, 8192, 16384} {
		res, err := RunPerf(PerfConfig{
			Scale: dataset.Scales[0], Updates: 10000, System: SysFedoraEps1,
			Workload: dataset.PerfWorkloads[2], Rounds: o.Rounds, Seed: o.Seed,
			BucketBytes: bb,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BucketAblationRow{
			BucketBytes:    bb,
			LifetimeMonths: res.LifetimeMonths(),
			Overhead:       res.Overhead,
		})
	}
	return rows, nil
}

// RenderBucketAblation renders the Sec 6.6 table.
func RenderBucketAblation(rows []BucketAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec 6.6 — Bucket-size ablation (Small table, 10K updates, FEDORA e=1)\n")
	tw := newTable(&b, "Bucket", "Lifetime (months)", "Overhead", "vs 4KB lifetime", "vs 4KB latency")
	var baseLife float64
	var baseOv time.Duration
	for i, r := range rows {
		if i == 0 {
			baseLife, baseOv = r.LifetimeMonths, r.Overhead
		}
		tw.row(fmt.Sprintf("%dKB", r.BucketBytes/1024),
			fmt.Sprintf("%.2f", r.LifetimeMonths), fmtDuration(r.Overhead),
			fmt.Sprintf("%+.0f%%", 100*(r.LifetimeMonths/baseLife-1)),
			fmt.Sprintf("%+.0f%%", 100*(float64(r.Overhead)/float64(baseOv)-1)))
	}
	tw.flush()
	return b.String()
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
}

// epsName pretty-prints an epsilon for table rows.
func epsName(eps float64) string {
	if eps == fdp.EpsilonInfinity {
		return "inf"
	}
	return fmt.Sprintf("%g", eps)
}
