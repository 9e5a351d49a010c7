// Command fedora-server runs a FEDORA controller behind the HTTP API of
// internal/api: an FL orchestrator POSTs rounds, clients GET their
// embedding rows and POST gradients.
//
//	fedora-server -listen :8080 -rows 1000000 -dim 16 -eps 1
//
// With -checkpoint-dir the server restores the newest valid controller
// checkpoint on startup and writes one on SIGINT/SIGTERM after draining
// in-flight requests, so a restart continues from the saved ORAM and
// model state.
//
// With -fl-dataset the controller is built from the FL accuracy-study
// configuration (fl.SingleConfig) instead of the raw -rows/-dim flags,
// so a remote fedora-train with the same dataset/mode/eps/seed
// reproduces the in-process run bit for bit:
//
//	fedora-server -listen :8080 -fl-dataset movielens -fl-mode hide-val -eps 1 -fl-quick
//	fedora-train  -single -remote http://localhost:8080 -dataset movielens -mode hide-val -eps 1 -quick
//
// Try it (v2 API; see docs/API.md):
//
//	curl -s localhost:8080/v2/status | jq .
//	curl -s -X POST localhost:8080/v2/rounds -d '{"requests":[[7,21],[7,99]]}'
//	curl -s -X POST localhost:8080/v2/rounds/r1/entries -d '{"rows":[7,21,99]}' | xxd | head
//	curl -s -X POST localhost:8080/v2/rounds/r1/finish | jq .
//
// Rows travel as binary row frames (the /entries reply above, gradient
// uploads); `fedora-client round` drives a whole round through the SDK.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/fault"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/storage"
	"repro/internal/wire"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "listen address")
		rows     = flag.Uint64("rows", 1_000_000, "embedding-table height")
		dim      = flag.Int("dim", 16, "embedding dimension (floats)")
		eps      = flag.Float64("eps", 1.0, "epsilon (0 = perfect FDP)")
		clients  = flag.Int("max-clients", 100, "max clients per round")
		features = flag.Int("max-features", 100, "max features per client")
		lr       = flag.Float64("lr", 1.0, "server learning rate")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		shards   = flag.Int("shards", 1, "partition the table across this many parallel per-shard ORAMs (1 = monolithic)")
		ckptDir  = flag.String("checkpoint-dir", "", "restore controller state on start, checkpoint on shutdown")
		drain    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain limit")

		flDataset = flag.String("fl-dataset", "", "build the controller for the FL study instead of raw -rows/-dim: movielens | taobao (pairs with fedora-train -remote)")
		flMode    = flag.String("fl-mode", "hide-val", "privacy mode with -fl-dataset: pub | hide-val | hide-num")
		flQuick   = flag.Bool("fl-quick", false, "trimmed dataset with -fl-dataset")

		roundDeadline = flag.Duration("round-deadline", 0, "finish rounds with partial gradients after this long (0 = no deadline)")
		uploadCodec   = flag.String("upload-codec", "", "upload-plane policy: require this wire codec on gradient uploads (plaintext | masked | masked-sparse | subspace); a masked policy also rejects plain gradient frames (\"\" = accept anything)")

		memberFirst = flag.Int("member-first", 0, "with -member-count: first GLOBAL shard this member serves in a fedora-coordinator cluster")
		memberCount = flag.Int("member-count", 0, "serve only shards [member-first, member-first+member-count) of the GLOBAL -shards partition as a cluster member (0 = serve everything)")

		faultPlan   = flag.String("fault-plan", "", "JSON fault-plan file: inject device faults for chaos testing (see internal/fault)")
		maxInflight = flag.Int("max-inflight", 0, "bound concurrent round operations; excess requests are shed with 503 + Retry-After (0 = unbounded)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "with -checkpoint-dir: checkpoint every N healthy rounds and auto-recover quarantined shards after degraded rounds (0 = shutdown checkpoint only)")

		storageKind   = flag.String("storage", "sim", "main-device storage backend: sim | file (real page-aligned I/O against backing files)")
		storageDir    = flag.String("storage-dir", "", "directory for -storage=file backing files (default: a fresh temp dir)")
		storageDirect = flag.Bool("storage-direct", false, "request O_DIRECT on -storage=file backing files (falls back to buffered I/O where unsupported)")
	)
	flag.Parse()

	spec, specErr := storage.ParseSpec(*storageKind, *storageDir, *storageDirect)
	if specErr != nil {
		log.Fatal(specErr)
	}
	// Every exit from here on removes a temp directory ParseSpec made; a
	// failed exit reports its cause, not a failure to remove the directory.
	fatal := func(v ...any) { _ = spec.RemoveTemp(); log.Fatal(v...) }

	var plan *fault.Plan
	if *faultPlan != "" {
		var err error
		if plan, err = fault.Load(*faultPlan); err != nil {
			fatal(err)
		}
		plan.ArmCrashPoints()
		fmt.Printf("fedora-server: fault plan %s armed (%d rules, seed %d)\n",
			*faultPlan, len(plan.Rules), plan.Seed)
	}

	// Build the GLOBAL controller config first; member mode then slices
	// it, so a member process and the whole-table process it mirrors are
	// built from the exact same parameters.
	var (
		fc      fedora.Config
		err     error
		dimUsed = *dim
	)
	if *flDataset != "" {
		flCfg, cfgErr := fl.SingleConfig(*flDataset, *eps, *flMode, *flQuick, *seed, 0, *shards)
		if cfgErr != nil {
			fatal(cfgErr)
		}
		dimUsed = flCfg.Dim
		flCfg.WrapDevice = plan.Wrap
		flCfg.Storage = spec
		fc, err = fl.ControllerConfig(flCfg)
	} else {
		fc = fedora.Config{
			NumRows:              *rows,
			Dim:                  *dim,
			Epsilon:              *eps,
			MaxClientsPerRound:   *clients,
			MaxFeaturesPerClient: *features,
			LearningRate:         float32(*lr),
			Seed:                 *seed,
			Shards:               *shards,
			WrapDevice:           plan.Wrap,
			Storage:              spec,
		}
	}
	if err != nil {
		fatal(err)
	}
	if *memberCount > 0 {
		// Cluster member: serve a contiguous slice of the global shard
		// partition under a fedora-coordinator. -shards stays the GLOBAL
		// total; the slice controller owns only its own rows.
		fc, err = fedora.SliceConfig(fc, *memberFirst, *memberCount)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fedora-server: cluster member serving shards [%d,%d) of %d\n",
			*memberFirst, *memberFirst+*memberCount, *shards)
	}
	ctrl, err := fedora.New(fc)
	if err != nil {
		fatal(err)
	}

	var mgr *persist.Manager
	if *ckptDir != "" {
		mgr, err = persist.OpenManager(*ckptDir)
		if err != nil {
			fatal(err)
		}
		blob, epoch, skipped, err := mgr.LoadSection(persist.ControllerSection)
		for _, skip := range skipped {
			log.Printf("fedora-server: skipped corrupt checkpoint: %v", skip)
		}
		switch {
		case errors.Is(err, persist.ErrNoCheckpoint):
		case err != nil:
			fatal(err)
		default:
			if err := ctrl.Restore(blob); err != nil {
				fatal(fmt.Sprintf("restore epoch %d: %v", epoch, err))
			}
			fmt.Printf("fedora-server: restored epoch %d (round %d) from %s\n", epoch, ctrl.Round(), mgr.Dir())
		}
	}

	fmt.Printf("fedora-server: N=%d dim=%d eps=%g shards=%d — main ORAM %.2f GB (SSD), %.2f GB DRAM\n",
		ctrl.NumRows(), dimUsed, *eps, ctrl.Shards(),
		float64(ctrl.MainORAMBytes())/1e9, float64(ctrl.DRAMResidentBytes())/1e9)
	if spec.Kind == storage.KindFile {
		fmt.Printf("fedora-server: storage=file dir=%s direct=%v (%d backing file(s))\n",
			spec.Dir, spec.Direct, ctrl.Shards())
	}
	fmt.Printf("listening on %s\n", *listen)

	var opts []api.Option
	if *roundDeadline > 0 {
		opts = append(opts, api.WithDefaultDeadline(*roundDeadline))
	}
	if *uploadCodec != "" {
		codec, err := wire.ParseCodec(*uploadCodec)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, api.WithUploadCodec(codec))
		fmt.Printf("fedora-server: upload-plane policy: %s\n", codec)
	}
	if *maxInflight > 0 {
		opts = append(opts, api.WithMaxInFlight(*maxInflight))
	}
	if *ckptEvery > 0 {
		if mgr == nil {
			fatal("fedora-server: -checkpoint-every requires -checkpoint-dir")
		}
		opts = append(opts, api.WithAutoRecover(mgr, *ckptEvery))
	}
	srv := &http.Server{Addr: *listen, Handler: api.NewServer(ctrl, opts...).Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case sig := <-sigCh:
		fmt.Printf("fedora-server: %v — draining\n", sig)
	}

	// Drain in-flight requests, then checkpoint the quiesced controller.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("fedora-server: drain: %v", err)
	}
	if mgr != nil {
		epoch, err := mgr.SaveSection(persist.ControllerSection, ctrl.Snapshot)
		switch {
		case errors.Is(err, fedora.ErrRoundOpen):
			// A round was in flight when the drain deadline hit; its state
			// is not snapshotable. The previous epoch stays authoritative.
			log.Printf("fedora-server: shutdown checkpoint skipped: %v", err)
		case err != nil:
			fatal(fmt.Sprintf("fedora-server: shutdown checkpoint: %v", err))
		default:
			fmt.Printf("fedora-server: checkpointed epoch %d to %s\n", epoch, mgr.Dir())
		}
	}
	if err := ctrl.Close(); err != nil {
		log.Printf("fedora-server: close storage: %v", err)
	}
	if err := spec.RemoveTemp(); err != nil {
		log.Printf("fedora-server: %v", err)
	}
}
