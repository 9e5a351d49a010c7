// Command fedora-train runs the FL accuracy study (Table 1): federated
// training of a DLRM-style model through the FEDORA controller on the
// synthetic MovieLens-like and Taobao-like datasets, reporting reduced
// accesses, dummy/lost fractions, and ROC-AUC per (mode, ε) cell.
//
//	fedora-train -table1          the full Table 1 sweep
//	fedora-train -table1 -quick   trimmed datasets + fewer rounds
//	fedora-train -single -dataset movielens -eps 1.0 -mode hide-val
//
// With -remote the -single run drives a fedora-server over the v2 HTTP
// API (through the internal/client SDK) instead of an in-process
// controller; start the server with matching -fl-dataset/-fl-mode/
// -eps/-seed flags and the two deployments produce bit-identical
// models:
//
//	fedora-train -single -remote http://localhost:8080 -dataset movielens -mode hide-val -eps 1
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/storage"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "run the full Table 1 accuracy study")
		pooling  = flag.Bool("ablation-pooling", false, "mean vs attention pooling ablation")
		single   = flag.Bool("single", false, "run one configuration")
		dsName   = flag.String("dataset", "movielens", "dataset for -single: movielens | taobao")
		epsStr   = flag.Float64("eps", math.Inf(1), "epsilon for -single (+Inf = no FDP)")
		mode     = flag.String("mode", "hide-val", "mode for -single: pub | hide-val | hide-num")
		rounds   = flag.Int("rounds", 0, "FL rounds (0 = default per study)")
		quick    = flag.Bool("quick", false, "trimmed datasets and round counts")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		csvOut   = flag.String("csv", "", "also write Table 1 to this CSV file")
		workers  = flag.Int("workers", 0, "client-training worker pool size (0 = GOMAXPROCS); results are seed-deterministic at any value")
		shards   = flag.Int("shards", 1, "partition the embedding table across this many parallel per-shard ORAMs (1 = monolithic); results are seed-deterministic at any value")
		prefetch = flag.Bool("prefetch", false, "lookahead: stage round R+1 after each round, so the controller plans and loads it while the caller is between rounds and defers its write-back; bit-identical to an unstaged run")

		uploadCodec = flag.String("upload-codec", "", "gradient upload codec: plaintext | masked | masked-sparse | subspace (\"\" = legacy float path); all wire codecs are bit-identical to each other")
		subspaceDim = flag.Int("subspace-dim", 0, "coordinates updated per row with -upload-codec=subspace (0 = dim/4)")

		ckptDir   = flag.String("checkpoint-dir", "", "durable checkpoint directory for -single (enables crash recovery)")
		ckptEvery = flag.Int("checkpoint-every", 10, "checkpoint period in rounds (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "resume -single from -checkpoint-dir (restores the newest valid checkpoint and replays the round WAL)")

		remote        = flag.String("remote", "", "drive a fedora-server (or coordinator) at this base URL instead of an in-process controller (-single only); comma-separate several coordinator endpoints for failover across an HA pair")
		remoteBatch   = flag.Int("remote-batch", 64, "rows per batched HTTP transfer with -remote")
		remoteRetry   = flag.Int("remote-retries", 4, "max retries per request with -remote")
		remoteTimeout = flag.Duration("remote-timeout", 30*time.Second, "per-attempt HTTP timeout with -remote")

		faultPlan = flag.String("fault-plan", "", "JSON fault-plan file for -single: inject device faults into the in-process controller to reproduce chaos failures locally (see internal/fault)")

		storageKind   = flag.String("storage", "sim", "main-device storage backend for -single: sim (discrete-event simulator) | file (real page-aligned I/O against backing files); results are bit-identical either way")
		storageDir    = flag.String("storage-dir", "", "directory for -storage=file backing files (default: a fresh temp dir)")
		storageDirect = flag.Bool("storage-direct", false, "request O_DIRECT on -storage=file backing files (falls back to buffered I/O where unsupported, e.g. tmpfs)")
	)
	flag.Parse()

	switch {
	case *table1:
		rows, err := experiments.RunTable1(experiments.Table1Options{
			Quick: *quick, Rounds: *rounds, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedora-train:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.RenderTable1(rows))
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fedora-train:", err)
				os.Exit(1)
			}
			if err := experiments.WriteTable1CSV(f, rows); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "fedora-train:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fedora-train:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *csvOut)
		}
	case *pooling:
		rows, err := experiments.RunPoolingAblation(experiments.SweepOptions{Quick: *quick, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedora-train:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.RenderPoolingAblation(rows))
	case *single:
		os.Exit(runSingle(singleOptions{
			dsName: *dsName, eps: *epsStr, mode: *mode, rounds: *rounds,
			quick: *quick, seed: *seed, workers: *workers, shards: *shards,
			prefetch: *prefetch,
			ckptDir:  *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
			remote: *remote, remoteBatch: *remoteBatch,
			remoteRetries: *remoteRetry, remoteTimeout: *remoteTimeout,
			uploadCodec: *uploadCodec, subspaceDim: *subspaceDim,
			faultPlan:   *faultPlan,
			storageKind: *storageKind, storageDir: *storageDir, storageDirect: *storageDirect,
		}))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

type singleOptions struct {
	dsName   string
	eps      float64
	mode     string
	rounds   int
	quick    bool
	seed     int64
	workers  int
	shards   int
	prefetch bool

	ckptDir   string
	ckptEvery int
	resume    bool

	remote        string
	remoteBatch   int
	remoteRetries int
	remoteTimeout time.Duration

	uploadCodec string
	subspaceDim int

	faultPlan string

	storageKind   string
	storageDir    string
	storageDirect bool
}

// runSingle runs one configuration and returns the process exit code, so
// that its deferred closes and the temp storage directory's removal run
// on every path.
func runSingle(o singleOptions) int {
	flCfg, err := fl.SingleConfig(o.dsName, o.eps, o.mode, o.quick, o.seed, o.workers, o.shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedora-train:", err)
		return 2
	}
	spec, err := storage.ParseSpec(o.storageKind, o.storageDir, o.storageDirect)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedora-train:", err)
		return 2
	}
	defer func() {
		if err := spec.RemoveTemp(); err != nil {
			fmt.Fprintln(os.Stderr, "fedora-train:", err)
		}
	}()
	if o.remote != "" && spec.Kind != storage.KindSim {
		fmt.Fprintln(os.Stderr, "fedora-train: -storage selects the in-process controller's backend; with -remote, pass -storage to fedora-server instead")
		return 2
	}
	flCfg.Storage = spec
	flCfg.UploadCodec = o.uploadCodec
	flCfg.SubspaceDim = o.subspaceDim
	flCfg.Prefetch = o.prefetch
	if spec.Kind == storage.KindFile {
		fmt.Printf("storage: file backend in %s (direct=%v)\n", spec.Dir, spec.Direct)
	}
	if o.faultPlan != "" {
		if o.remote != "" {
			fmt.Fprintln(os.Stderr, "fedora-train: -fault-plan wraps the in-process controller's devices; with -remote, pass it to fedora-server instead")
			return 2
		}
		plan, err := fault.Load(o.faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedora-train:", err)
			return 2
		}
		plan.ArmCrashPoints()
		flCfg.WrapDevice = plan.Wrap
		fmt.Printf("fault plan %s armed (%d rules, seed %d)\n", o.faultPlan, len(plan.Rules), plan.Seed)
	}

	var (
		tr  *fl.Trainer
		sdk *client.Client
	)
	if o.remote != "" {
		// Remote mode: the trainer keeps the whole deterministic FL loop
		// (selection, local SGD, merge order) and drives the server's
		// controller over the batched v2 API. Durability belongs to the
		// server process (fedora-server -checkpoint-dir), not the client.
		if o.ckptDir != "" || o.resume {
			fmt.Fprintln(os.Stderr, "fedora-train: -checkpoint-dir/-resume require an in-process controller; with -remote, run fedora-server -checkpoint-dir instead")
			return 2
		}
		endpoints := strings.Split(o.remote, ",")
		for i := range endpoints {
			endpoints[i] = strings.TrimSpace(endpoints[i])
		}
		sdk, err = client.New(client.Config{
			Endpoints:  endpoints,
			Timeout:    o.remoteTimeout,
			MaxRetries: o.remoteRetries,
			BatchSize:  o.remoteBatch,
		})
		if err == nil {
			tr, err = client.NewRemoteTrainer(flCfg, sdk)
		}
	} else {
		tr, err = fl.New(flCfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedora-train:", err)
		return 1
	}
	defer tr.Close()
	rounds := o.rounds
	if rounds == 0 {
		rounds = 100
		if o.quick {
			rounds = 40
		}
	}
	if o.resume && o.ckptDir == "" {
		fmt.Fprintln(os.Stderr, "fedora-train: -resume requires -checkpoint-dir")
		return 1
	}
	var res fl.Result
	if o.ckptDir != "" {
		// Durable mode: periodic checkpoints + round WAL; -resume picks up
		// a crashed or interrupted run exactly where it left off.
		runner, rerr := fl.NewRunner(tr, o.ckptDir, o.ckptEvery)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "fedora-train:", rerr)
			return 1
		}
		defer runner.Close()
		if o.resume {
			rep, rerr := runner.Resume()
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "fedora-train: resume:", rerr)
				return 1
			}
			for _, skip := range rep.Skipped {
				fmt.Fprintln(os.Stderr, "fedora-train: resume: skipped corrupt checkpoint:", skip)
			}
			fmt.Printf("resumed from epoch %d (round %d), replayed %d WAL round(s)\n",
				rep.RestoredEpoch, rep.RestoredRound, rep.ReplayedRounds)
		}
		res, err = runner.Run(rounds)
		if err == nil {
			_, err = runner.Checkpoint() // final snapshot for clean restart
		}
	} else {
		res, err = tr.Run(rounds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedora-train:", err)
		return 1
	}
	where := "in-process"
	shardsStr := "?"
	if ctrl := tr.Controller(); ctrl != nil {
		shardsStr = fmt.Sprintf("%d", ctrl.Shards())
	} else {
		where = "remote " + o.remote
	}
	fmt.Printf("dataset=%s mode=%s eps=%g rounds=%d workers=%d shards=%s controller=%s\n",
		o.dsName, o.mode, o.eps, rounds, res.Workers, shardsStr, where)
	if sdk != nil {
		st := sdk.Stats()
		fmt.Printf("http: %d requests, %d retries, %d failures\n", st.Requests, st.Retries, st.Failures)
	}
	fmt.Printf("AUC:              %.4f\n", res.AUC)
	fmt.Printf("reduced accesses: %.2f%%\n", 100*res.ReducedAccesses)
	if tr.Controller() != nil {
		fmt.Printf("dummy accesses:   %.2f%% of optimum\n", 100*res.DummyFrac)
		fmt.Printf("lost accesses:    %.2f%% of optimum\n", 100*res.LostFrac)
	} else {
		// k_union and the dummy/lost split are what ε-FDP noises; the API
		// does not return them, so a remote trainer has nothing to report.
		fmt.Println("dummy accesses:   n/a (secret, not exported)")
		fmt.Println("lost accesses:    n/a (secret, not exported)")
	}
	fmt.Printf("wall time:        %v\n", res.Elapsed.Round(1e6))
	if o.uploadCodec != "" {
		perRound := uint64(0)
		if res.Rounds > 0 {
			perRound = res.WireBytes / uint64(res.Rounds)
		}
		fmt.Printf("upload plane:     codec=%s %d bytes total (%d bytes/round), %d saturations\n",
			o.uploadCodec, res.WireBytes, perRound, res.Saturations)
	}
	if ctrl := tr.Controller(); ctrl != nil && o.prefetch {
		rep := ctrl.PrefetchReport()
		fmt.Printf("prefetch: %d staged rows served, %d staged but never served\n", rep.Hits, rep.Wasted)
	}
	if ctrl := tr.Controller(); ctrl != nil {
		if reps := ctrl.StorageReports(); len(reps) > 0 {
			fmt.Println("storage (measured real-I/O latencies):")
			for _, rep := range reps {
				fmt.Print(indent(rep.String(), "  "))
			}
		}
	}
	return 0
}

// indent prefixes every non-empty line.
func indent(s, pre string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pre + l
		}
	}
	return strings.Join(lines, "\n")
}
