// Command fedora-coordinator serves ONE FEDORA row-space across many
// fedora-server member processes: it owns the shard placement map,
// fans each FL round out to the members over the batched v2 API, and
// presents the exact same v2 API surface itself — a remote fedora-train
// pointed at the coordinator reproduces the single-process model bit
// for bit at any node count.
//
// Members are fedora-server processes started in member mode over the
// SAME global configuration:
//
//	fedora-server -listen :8081 -rows 100000 -dim 16 -shards 2 -member-first 0 -member-count 1
//	fedora-server -listen :8082 -rows 100000 -dim 16 -shards 2 -member-first 1 -member-count 1
//	fedora-coordinator -listen :8080 -rows 100000 -dim 16 -shards 2 \
//	    -members "http://localhost:8081=0:1,http://localhost:8082=1:1"
//
// A member that stops answering is FENCED: its rows serve as
// unavailable (rounds degrade, exactly like shard quarantine) until it
// recovers. With -checkpoint-dir the coordinator assembles cluster-wide
// checkpoints (byte-identical to single-process sharded checkpoints)
// and migrates shards from the newest one onto a replacement node that
// registers via POST /cluster/join. Placement and per-node health are
// served on GET /cluster/status (or `fedora-client cluster`).
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/wire"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "listen address")
		members  = flag.String("members", "", `placement map: comma-separated "url=first:count" entries tiling shards [0,-shards) in order (required)`)
		rows     = flag.Uint64("rows", 1_000_000, "embedding-table height (GLOBAL)")
		dim      = flag.Int("dim", 16, "embedding dimension (floats)")
		eps      = flag.Float64("eps", 1.0, "epsilon (0 = perfect FDP)")
		clients  = flag.Int("max-clients", 100, "max clients per round")
		features = flag.Int("max-features", 100, "max features per client")
		lr       = flag.Float64("lr", 1.0, "server learning rate")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		shards   = flag.Int("shards", 1, "GLOBAL shard count the members partition")

		flDataset = flag.String("fl-dataset", "", "configure for the FL study instead of raw -rows/-dim: movielens | taobao (pairs with fedora-train -remote)")
		flMode    = flag.String("fl-mode", "hide-val", "privacy mode with -fl-dataset: pub | hide-val | hide-num")
		flQuick   = flag.Bool("fl-quick", false, "trimmed dataset with -fl-dataset")

		probeEvery    = flag.Duration("probe-every", 5*time.Second, "background member health-probe period")
		memberTimeout = flag.Duration("member-timeout", 30*time.Second, "per-attempt timeout on member calls")
		memberRetries = flag.Int("member-retries", 2, "retries per member call before the node is fenced")

		ckptDir   = flag.String("checkpoint-dir", "", "durable state directory: round WAL, cluster checkpoints, coordinator epoch; feeds crash recovery, join-time shard migration and failover to a second instance over the same directory")
		ckptEvery = flag.Int("checkpoint-every", 0, "with -checkpoint-dir: checkpoint every N healthy rounds, auto-migrate after degraded rounds, and reset the round WAL (0 = every round)")

		peerURL       = flag.String("peer", "", "the other coordinator instance's URL (served as leader_hint while this instance is standby)")
		selfURL       = flag.String("self", "", "this instance's advertised URL (served as leader_hint and on /cluster/leader)")
		roundDeadline = flag.Duration("round-deadline", 0, "finish rounds with partial gradients after this long (0 = no deadline)")
		maxInflight   = flag.Int("max-inflight", 0, "bound concurrent round operations; excess requests are shed with 503 + Retry-After (0 = unbounded)")
		uploadCodec   = flag.String("upload-codec", "", "upload-plane policy: require this wire codec on gradient uploads (plaintext | masked | masked-sparse | subspace); a masked policy also rejects plain gradient frames (\"\" = accept anything)")
		drain         = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain limit")
	)
	flag.Parse()

	nodes, err := parseMembers(*members)
	if err != nil {
		log.Fatal(err)
	}

	var fc fedora.Config
	if *flDataset != "" {
		flCfg, cfgErr := fl.SingleConfig(*flDataset, *eps, *flMode, *flQuick, *seed, 0, *shards)
		if cfgErr != nil {
			log.Fatal(cfgErr)
		}
		fc, err = fl.ControllerConfig(flCfg)
		if err != nil {
			log.Fatal(err)
		}
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
		}
	}

	ccfg := cluster.Config{
		Fedora: fc,
		Nodes:  nodes,
		Client: client.Config{
			Timeout:    *memberTimeout,
			MaxRetries: *memberRetries,
		},
		ProbeInterval: *probeEvery,
	}

	var mgr *persist.Manager
	if *ckptDir != "" {
		if mgr, err = persist.OpenManager(*ckptDir); err != nil {
			log.Fatal(err)
		}
		ccfg.Manager = mgr
		ccfg.CheckpointEvery = *ckptEvery
	}

	co, err := cluster.New(ccfg)
	if err != nil {
		log.Fatal(err)
	}

	// With a durable directory, leadership owns startup: the instance
	// that takes the directory's leader lock claims the next coordinator
	// epoch, fences the members with it, restores the newest checkpoint
	// and replays the round WAL before serving; any other stands by and
	// does all of that once the lock is free. Without one, this is the
	// original best-effort coordinator.
	var ha *cluster.HA
	if mgr != nil {
		ha, err = cluster.NewHA(cluster.HAConfig{Coordinator: co, SelfURL: *selfURL, PeerURL: *peerURL})
		if err != nil {
			log.Fatal(err)
		}
		if err := ha.Start(); err != nil {
			log.Fatal(err)
		}
		if ha.Role() == "primary" {
			fmt.Printf("fedora-coordinator: primary at coordinator epoch %d (round %d)\n", co.Epoch(), co.Round())
		} else {
			fmt.Printf("fedora-coordinator: standby, the leader lock in %s is held (leader hint %s)\n", mgr.Dir(), *peerURL)
		}
	} else {
		co.StartProbes()
	}
	defer co.StopProbes()

	fmt.Printf("fedora-coordinator: N=%d dim=%d eps=%g shards=%d over %d node(s)\n",
		co.NumRows(), fc.Dim, fc.Epsilon, co.Shards(), len(nodes))
	for _, n := range nodes {
		fmt.Printf("fedora-coordinator: shards [%d,%d) -> %s\n", n.First, n.First+n.Count, n.URL)
	}
	fmt.Printf("listening on %s\n", *listen)

	var opts []api.Option
	if *roundDeadline > 0 {
		opts = append(opts, api.WithDefaultDeadline(*roundDeadline))
	}
	if *maxInflight > 0 {
		opts = append(opts, api.WithMaxInFlight(*maxInflight))
	}
	if *uploadCodec != "" {
		codec, err := wire.ParseCodec(*uploadCodec)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, api.WithUploadCodec(codec))
		fmt.Printf("fedora-coordinator: upload-plane policy: %s\n", codec)
	}
	if *ckptEvery > 0 && mgr == nil {
		log.Fatal("fedora-coordinator: -checkpoint-every requires -checkpoint-dir")
	}
	// The post-round rule (api.AfterRound: checkpoint cadence and
	// degraded-round migration) runs inside the coordinator itself
	// (Config.Manager), with the round-WAL reset as its after-save hook,
	// so the api.Server below gets no WithAutoRecover: running the rule
	// there too would save a second checkpoint per due round, unpaired
	// with any WAL reset.
	mux := http.NewServeMux()
	co.RegisterRoutes(mux)
	mux.Handle("/", api.NewServerFor(co, opts...).Handler())
	var handler http.Handler = mux
	if ha != nil {
		handler = ha.Handler(mux)
	}
	srv := &http.Server{Addr: *listen, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		fmt.Printf("fedora-coordinator: %v — draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("fedora-coordinator: drain: %v", err)
	}
	if mgr != nil && (ha == nil || ha.Role() == "primary") {
		err := co.Checkpoint()
		switch {
		case errors.Is(err, fedora.ErrRoundOpen):
			log.Printf("fedora-coordinator: shutdown checkpoint skipped: %v", err)
		case err != nil:
			// Members may already be gone at shutdown; the previous epoch
			// stays authoritative.
			log.Printf("fedora-coordinator: shutdown checkpoint: %v", err)
		default:
			fmt.Printf("fedora-coordinator: checkpointed round %d to %s\n", co.Round(), mgr.Dir())
		}
	}
}

// parseMembers parses the "url=first:count,..." placement flag.
func parseMembers(s string) ([]cluster.NodeSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("fedora-coordinator: -members is required")
	}
	var nodes []cluster.NodeSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		url, place, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fedora-coordinator: member %q: want url=first:count", entry)
		}
		firstStr, countStr, ok := strings.Cut(place, ":")
		if !ok {
			return nil, fmt.Errorf("fedora-coordinator: member %q: want url=first:count", entry)
		}
		first, err := strconv.Atoi(firstStr)
		if err != nil {
			return nil, fmt.Errorf("fedora-coordinator: member %q: first shard: %w", entry, err)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil {
			return nil, fmt.Errorf("fedora-coordinator: member %q: shard count: %w", entry, err)
		}
		nodes = append(nodes, cluster.NodeSpec{URL: url, First: first, Count: count})
	}
	return nodes, nil
}
