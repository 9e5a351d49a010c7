// Command fedora runs a single FEDORA round pipeline end-to-end on a
// configurable table and prints what the controller did: union sizes,
// the ε-FDP sample, ORAM traffic, modelled latency, and the projected
// SSD lifetime. Useful for exploring configurations interactively.
//
//	fedora -rows 10000000 -entry 64 -updates 10000 -eps 1 -backend fedora
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fedora"
)

func main() {
	var (
		rows     = flag.Uint64("rows", 10_000_000, "embedding-table height N")
		entry    = flag.Int("entry", 64, "embedding row size in bytes (multiple of 4)")
		updates  = flag.Int("updates", 10_000, "requests per round (K)")
		eps      = flag.Float64("eps", 1.0, "epsilon (0 = perfect FDP, k=K)")
		backend  = flag.String("backend", "fedora", "fedora | pathoram+ | dram")
		workload = flag.String("workload", "taobao-val", "workload key (see dataset.PerfWorkloads)")
		rounds   = flag.Int("n", 2, "rounds to simulate")
		seed     = flag.Int64("seed", 1, "deterministic seed")
	)
	flag.Parse()

	var be fedora.Backend
	switch *backend {
	case "fedora":
		be = fedora.BackendFedora
	case "pathoram+":
		be = fedora.BackendPathORAMPlus
	case "dram":
		be = fedora.BackendDRAM
	default:
		fmt.Fprintf(os.Stderr, "fedora: unknown backend %q\n", *backend)
		os.Exit(2)
	}
	w, ok := dataset.WorkloadByKey(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "fedora: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	const featPerClient = 100
	clients := *updates / featPerClient
	if clients < 1 {
		clients = 1
	}
	ctrl, err := fedora.New(fedora.Config{
		Backend:              be,
		NumRows:              *rows,
		Dim:                  *entry / 4,
		Epsilon:              *eps,
		HideCount:            w.HideCount,
		MaxClientsPerRound:   clients,
		MaxFeaturesPerClient: featPerClient,
		Seed:                 *seed,
		Phantom:              true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedora:", err)
		os.Exit(1)
	}
	fmt.Printf("backend=%s  N=%d  entry=%dB  K=%d  eps=%g  workload=%s\n",
		be, *rows, *entry, *updates, *eps, w.Name)
	fmt.Printf("main ORAM: %.2f GB on %s; controller DRAM: %.2f GB\n\n",
		float64(ctrl.MainORAMBytes())/1e9, ctrl.SSDDevice().Profile().Name,
		float64(ctrl.DRAMResidentBytes())/1e9)

	rng := rand.New(rand.NewSource(*seed + 7))
	for i := 0; i < *rounds; i++ {
		reqs := w.GenRound(*rows, clients, featPerClient, rng)
		r, err := ctrl.BeginRound(reqs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedora:", err)
			os.Exit(1)
		}
		st, err := r.Finish()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedora:", err)
			os.Exit(1)
		}
		fmt.Printf("round %d: K=%d k_union=%d k=%d dummy=%d lost=%d chunks=%d eps=%.4g\n",
			i+1, st.K, st.KUnion, st.KSampled, st.Dummy, st.Lost, st.Chunks, st.RoundEpsilon)
		fmt.Printf("  time: union=%v read=%v update=%v total=%v (%.1f%% of a 2-min round)\n",
			st.UnionTime.Round(1e6), st.ReadTime.Round(1e6), st.UpdateTime.Round(1e6),
			st.Total().Round(1e6), 100*float64(st.Total())/float64(experiments.FLRoundBaseline))
	}
	ssd := ctrl.SSDDevice().Stats()
	fmt.Printf("\nSSD traffic: %.2f GB read, %.2f GB written over %d rounds\n",
		float64(ssd.BytesRead)/1e9, float64(ssd.BytesWritten)/1e9, *rounds)
	if be != fedora.BackendDRAM {
		perRound := ssd.BytesWritten / uint64(*rounds)
		life := costmodel.SSDLifetime(ctrl.MainORAMBytes(), perRound,
			experiments.FLRoundBaseline)
		fmt.Printf("projected SSD lifetime (SSD = ORAM size): %.1f months\n",
			costmodel.Months(life))
	}
}
