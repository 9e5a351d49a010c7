package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/persist"
	"repro/internal/storage"
	"repro/internal/wire"
)

// geometry sizes the workloads. fullGeometry is what the benchmark
// measures; tests shrink it so all four shapes run in a second.
type geometry struct {
	// train_*: one shared FL cell, so the deployment tax reads as a
	// difference between the three.
	Items                uint64
	Users                int
	SamplesPerUser       int
	Dim, Hidden          int
	ClientsPerRound      int
	MaxFeaturesPerClient int
	CheckpointEvery      int
	// oram_serve
	ServeRows     uint64
	ServeClients  int
	ServeFeatures int
}

func fullGeometry() geometry {
	ml := dataset.MovieLensConfig()
	return geometry{
		Items: ml.NumItems, Users: ml.NumUsers, SamplesPerUser: ml.SamplesPerUser,
		Dim: 16, Hidden: 32, ClientsPerRound: 32, MaxFeaturesPerClient: 100,
		CheckpointEvery: 5,
		ServeRows:       1 << 20, ServeClients: 32, ServeFeatures: 128,
	}
}

// roundStats are the public per-round facts the end-to-end metrics are
// built from. KUnion, Dummy and Lost are the secret ε-FDP noises and
// are never read.
type roundStats struct {
	K, KSampled     int
	Epsilon         float64
	Trained         int
	DroppedSamples  int
	UnavailableRows int
}

// deployment is one built workload: everything between the benchmark's
// closed loop and the devices.
type deployment struct {
	workload string
	// round runs one FL round; stage says whether to stage the next one
	// afterwards (the lookahead leg; a no-op without Prefetch).
	round func(stage bool) (roundStats, error)
	// ssd sums SSDStats() over every controller/member underneath.
	ssd func() device.Stats
	// sdk is the trainer's SDK client (nil when the workload has none).
	sdk *client.Client
	// trainer and dataset are nil on oram_serve; ctrls are the fedora
	// controllers underneath (one, or one per member).
	trainer *fl.Trainer
	dataset *dataset.Dataset
	ctrls   []*fedora.Controller
	// touched, when non-nil, collects every real row oram_serve requests
	// (verification reads them all back).
	touched map[uint64]bool
	// snapshot serializes the deployment's controller state.
	snapshot func() ([]byte, error)
	// cluster-only: the coordinator's durable directory, and the
	// RoundTripper counting its member fan-out when traced.
	mgr      *persist.Manager
	memberRT *tracedRT

	closers []func() error
}

// Close tears the deployment down, newest resource first; a second
// call is a no-op.
func (d *deployment) Close() error {
	var first error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	d.closers = nil
	return first
}

func (d *deployment) onClose(f func() error) { d.closers = append(d.closers, f) }

// env is what a setup needs besides the geometry: the seed every input
// derives from, a scratch directory under bench/out, and the tracer
// (nil on an untraced run, in which case no decorator is installed).
type env struct {
	geom geometry
	seed int64
	dir  string
	tr   *tracer
}

// setup builds the named workload's deployment.
func setup(workload string, e env) (*deployment, error) {
	switch workload {
	case wTrainLocal:
		return setupTrainLocal(e)
	case wTrainRemote:
		return setupTrainRemote(e)
	case wTrainCluster:
		return setupTrainCluster(e)
	case wORAMServe:
		return setupORAMServe(e, storage.KindFile)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
}

// trainConfig is the named train_* workload's fl.Config: the shared
// cell plus the deployment shape that names the workload.
func trainConfig(workload string, e env) fl.Config {
	cfg := flConfig(e)
	switch workload {
	case wTrainLocal:
		// One shard, sync reads, legacy float upload.
		cfg.Shards = 1
	case wTrainRemote:
		// Lookahead pipeline on, binary plaintext (FWR1) upload.
		cfg.Shards, cfg.Prefetch, cfg.UploadCodec = 2, true, string(wire.CodecPlaintext)
	case wTrainCluster:
		// Sync reads; the coordinator hosts the masked-sparse aggregator.
		cfg.Shards, cfg.UploadCodec = 2, string(wire.CodecMaskedSparse)
	}
	return cfg
}

// flConfig generates the shared FL cell from the seed: the dataset's
// own seed, the request lists (drawn by the trainer from Config.Seed)
// and the model initialisation all derive from it.
func flConfig(e env) fl.Config {
	g := e.geom
	dc := dataset.MovieLensConfig()
	dc.NumItems, dc.NumUsers, dc.SamplesPerUser = g.Items, g.Users, g.SamplesPerUser
	dc.Seed = e.seed*7919 + 101
	cfg := fl.Config{
		Dataset: dataset.Generate(dc),
		Dim:     g.Dim, Hidden: g.Hidden, UsePrivate: true,
		Epsilon: 1, ClientsPerRound: g.ClientsPerRound,
		MaxFeaturesPerClient: g.MaxFeaturesPerClient,
		LocalEpochs:          2, LocalLR: 0.1, Encrypt: true,
		Seed: e.seed, Workers: 2, ShardWorkers: 2,
	}
	if e.tr != nil {
		cfg.WrapDevice = e.tr.wrapDevice
	}
	return cfg
}

// trainRound adapts a trainer to the deployment's round function.
func trainRound(t *fl.Trainer) func(bool) (roundStats, error) {
	return func(stage bool) (roundStats, error) {
		rep, err := t.RunRound()
		if err != nil {
			return roundStats{}, err
		}
		if stage {
			t.StageNext()
		}
		return roundStats{
			K: rep.K, KSampled: rep.KSampled, Epsilon: rep.RoundEpsilon,
			Trained: rep.TrainedSamples, DroppedSamples: rep.DroppedSamples,
			UnavailableRows: rep.UnavailableRows,
		}, nil
	}
}

func sumSSD(ctrls []*fedora.Controller) func() device.Stats {
	return func() device.Stats {
		var total device.Stats
		for _, c := range ctrls {
			total.Add(c.SSDStats())
		}
		return total
	}
}

// ---- train_local ------------------------------------------------------

// setupTrainLocal is the plain single-process baseline: fl.New, one
// shard, sync reads, legacy float upload, simulated storage.
func setupTrainLocal(e env) (*deployment, error) {
	cfg := trainConfig(wTrainLocal, e)
	var (
		t    *fl.Trainer
		ctrl *fedora.Controller
		err  error
	)
	if e.tr == nil {
		if t, err = fl.New(cfg); err != nil {
			return nil, err
		}
		ctrl = t.Controller()
	} else {
		if ctrl, err = fl.BuildController(cfg); err != nil {
			return nil, err
		}
		orch := &tracedOrch{tr: e.tr, inner: &ctrlOrch{c: tracedFedora{fedoraCtrl{ctrl}, e.tr}}}
		if t, err = fl.NewWithOrchestrator(cfg, orch); err != nil {
			ctrl.Close()
			return nil, err
		}
	}
	d := &deployment{
		workload: wTrainLocal, round: trainRound(t), trainer: t, dataset: cfg.Dataset,
		ctrls: []*fedora.Controller{ctrl}, snapshot: ctrl.Snapshot,
	}
	d.ssd = sumSSD(d.ctrls)
	d.onClose(ctrl.Close)
	return d, nil
}

// ---- HTTP plumbing ----------------------------------------------------

// sdkTransport is a fresh loopback transport capped at two connections
// (nproc is 2; more would only queue).
func sdkTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
}

// controllerHandler is the api server over one fedora controller; when
// traced, the handler and the controller behind it are both decorated.
func controllerHandler(ctrl *fedora.Controller, tr *tracer, prefix string) http.Handler {
	if tr == nil {
		return api.NewServer(ctrl).Handler()
	}
	return tracedHandler(api.NewServerFor(tracedFedora{fedoraCtrl{ctrl}, tr}).Handler(), tr, prefix)
}

// serve starts h on a real loopback TCP listener.
func (d *deployment) serve(h http.Handler) *httptest.Server {
	srv := httptest.NewServer(h)
	d.onClose(func() error { srv.Close(); return nil })
	return srv
}

// newSDK builds the trainer's SDK client against url and makes the
// first connection.
func (d *deployment) newSDK(e env, url string) (*client.Client, error) {
	tp := sdkTransport()
	d.onClose(func() error { tp.CloseIdleConnections(); return nil })
	var rt http.RoundTripper = tp
	if e.tr != nil {
		rt = &tracedRT{inner: tp, tr: e.tr, prefix: "client.rt."}
	}
	cli, err := client.New(client.Config{
		BaseURL: url, BatchSize: 128, RetrySeed: e.seed,
		HTTPClient: &http.Client{Transport: rt},
	})
	if err != nil {
		return nil, err
	}
	if _, err := cli.Status(context.Background()); err != nil {
		return nil, fmt.Errorf("first connection: %w", err)
	}
	return cli, nil
}

// ---- train_remote -----------------------------------------------------

// setupTrainRemote puts the v2 SDK and api server on the line: two
// shards, the lookahead pipeline on, binary plaintext upload, JSON
// /entries in 128-row batches.
func setupTrainRemote(e env) (_ *deployment, err error) {
	cfg := trainConfig(wTrainRemote, e)
	d := &deployment{workload: wTrainRemote, dataset: cfg.Dataset}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	ctrl, err := fl.BuildController(cfg)
	if err != nil {
		return nil, err
	}
	d.onClose(ctrl.Close)
	d.ctrls = []*fedora.Controller{ctrl}
	d.ssd, d.snapshot = sumSSD(d.ctrls), ctrl.Snapshot

	srv := d.serve(controllerHandler(ctrl, e.tr, "api.handler."))
	if d.sdk, err = d.newSDK(e, srv.URL); err != nil {
		return nil, err
	}
	if d.trainer, err = d.newRemoteTrainer(e, cfg); err != nil {
		return nil, err
	}
	d.round = trainRound(d.trainer)
	return d, nil
}

func (d *deployment) newRemoteTrainer(e env, cfg fl.Config) (*fl.Trainer, error) {
	if e.tr == nil {
		return client.NewRemoteTrainer(cfg, d.sdk)
	}
	orch := &tracedOrch{tr: e.tr, inner: client.NewOrchestrator(context.Background(), d.sdk)}
	return fl.NewWithOrchestrator(cfg, orch)
}

// ---- train_cluster ----------------------------------------------------

// setupTrainCluster is SDK → HA primary coordinator (round WAL,
// checkpoint every CheckpointEvery rounds, epoch fence on every member
// call) → two one-shard members; the coordinator hosts the
// masked-sparse aggregator.
func setupTrainCluster(e env) (_ *deployment, err error) {
	cfg := trainConfig(wTrainCluster, e)
	d := &deployment{workload: wTrainCluster, dataset: cfg.Dataset}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	global, err := fl.ControllerConfig(cfg)
	if err != nil {
		return nil, err
	}
	var nodes []cluster.NodeSpec
	for i := 0; i < cfg.Shards; i++ {
		sub, err := fedora.SliceConfig(global, i, 1)
		if err != nil {
			return nil, err
		}
		ctrl, err := fedora.New(sub)
		if err != nil {
			return nil, err
		}
		d.onClose(ctrl.Close)
		d.ctrls = append(d.ctrls, ctrl)
		h := controllerHandler(ctrl, e.tr, "member.handler.")
		nodes = append(nodes, cluster.NodeSpec{URL: d.serve(h).URL, First: i, Count: 1})
	}
	d.ssd = sumSSD(d.ctrls)

	ckptDir := filepath.Join(e.dir, "ckpt")
	if d.mgr, err = persist.OpenManager(ckptDir); err != nil {
		return nil, err
	}
	memberTP := sdkTransport()
	d.onClose(func() error { memberTP.CloseIdleConnections(); return nil })
	var memberRT http.RoundTripper = memberTP
	if e.tr != nil {
		d.memberRT = &tracedRT{inner: memberTP, tr: e.tr, prefix: "member.rt.", adopt: "cluster."}
		memberRT = d.memberRT
	}
	co, err := cluster.New(cluster.Config{
		Fedora: global, Nodes: nodes,
		Client: client.Config{
			Timeout: 30 * time.Second, MaxRetries: 2, RetrySeed: e.seed + 1,
			HTTPClient: &http.Client{Transport: memberRT},
		},
		Manager: d.mgr, CheckpointEvery: e.geom.CheckpointEvery,
		// Background probes would make the fan-out counts depend on the
		// wall clock; rounds still fence through every member call.
		ProbeInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	d.snapshot = co.Snapshot

	front := httptest.NewUnstartedServer(nil)
	d.onClose(func() error { front.Close(); return nil })
	frontURL := "http://" + front.Listener.Addr().String()
	ha, err := cluster.NewHA(cluster.HAConfig{Coordinator: co, SelfURL: frontURL})
	if err != nil {
		return nil, err
	}
	if err := ha.Start(); err != nil {
		return nil, err
	}
	d.onClose(func() error { ha.Stop(); co.StopProbes(); return nil })

	var backend api.Controller = co
	if e.tr != nil {
		backend = tracedCoord{co, e.tr}
	}
	mux := http.NewServeMux()
	co.RegisterRoutes(mux)
	mux.Handle("/", api.NewServerFor(backend, api.WithUploadCodec(wire.CodecMaskedSparse)).Handler())
	h := ha.Handler(mux)
	if e.tr != nil {
		h = tracedHandler(h, e.tr, "api.handler.")
	}
	front.Config.Handler = h
	front.Start()

	if d.sdk, err = d.newSDK(e, frontURL); err != nil {
		return nil, err
	}
	if d.trainer, err = d.newRemoteTrainer(e, cfg); err != nil {
		return nil, err
	}
	d.round = trainRound(d.trainer)
	return d, nil
}

// ---- oram_serve -------------------------------------------------------

// serveConfig is the controller-bound shape: no trainer, no HTTP, a
// table 256× the training cell's, K = clients × features in one union
// chunk.
func serveConfig(e env, kind storage.Kind) fedora.Config {
	g := e.geom
	fc := fedora.Config{
		NumRows: g.ServeRows, Dim: g.Dim, Epsilon: 1,
		MaxClientsPerRound: g.ServeClients, MaxFeaturesPerClient: g.ServeFeatures,
		LearningRate: 1, Seed: e.seed, Encrypt: true, HasScratchpad: true,
	}
	if kind == storage.KindFile {
		// Buffered I/O, default batched fsync: the page cache serves the
		// reads in this sandbox (README "Sandbox caveats").
		fc.Storage = storage.Spec{Kind: storage.KindFile, Dir: filepath.Join(e.dir, "dev")}
	}
	if e.tr != nil {
		fc.WrapDevice = e.tr.wrapDevice
	}
	return fc
}

func setupORAMServe(e env, kind storage.Kind) (*deployment, error) {
	fc := serveConfig(e, kind)
	if fc.Storage.Dir != "" {
		if err := os.MkdirAll(fc.Storage.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	ctrl, err := fedora.New(fc)
	if err != nil {
		return nil, err
	}
	var backend api.Controller = fedoraCtrl{ctrl}
	if e.tr != nil {
		backend = tracedFedora{fedoraCtrl{ctrl}, e.tr}
	}
	wl, ok := dataset.WorkloadByKey("taobao-val")
	if !ok {
		return nil, errors.New("dataset: taobao-val workload missing")
	}
	g := e.geom
	rng := rand.New(rand.NewSource(e.seed*6007 + 13))
	grad := make([]float32, g.Dim)
	for i := range grad {
		grad[i] = 0.25
	}
	d := &deployment{
		workload: wORAMServe, ctrls: []*fedora.Controller{ctrl}, snapshot: ctrl.Snapshot,
	}
	d.ssd = sumSSD(d.ctrls)
	d.onClose(ctrl.Close)
	d.round = func(bool) (roundStats, error) {
		reqs := wl.GenRound(g.ServeRows, g.ServeClients, g.ServeFeatures, rng)
		if d.touched != nil {
			for _, rows := range reqs {
				for _, row := range rows {
					d.touched[row] = true
				}
			}
		}
		r, err := backend.BeginRound(reqs)
		if err != nil {
			return roundStats{}, err
		}
		var unavailable int
		for _, rows := range reqs {
			res, err := r.ServeEntries(rows)
			if err != nil {
				return roundStats{}, err
			}
			// One gradient per distinct served row, as a client would.
			seen := make(map[uint64]bool, len(rows))
			grads := make([]fedora.RowGradient, 0, len(rows))
			for _, er := range res {
				if er.Unavailable {
					unavailable++
				}
				if er.OK && !seen[er.Row] {
					seen[er.Row] = true
					grads = append(grads, fedora.RowGradient{Row: er.Row, Grad: grad, Samples: 1})
				}
			}
			if _, err := r.SubmitGradients(grads); err != nil {
				return roundStats{}, err
			}
		}
		st, err := r.Finish()
		if err != nil {
			return roundStats{}, err
		}
		return roundStats{K: st.K, KSampled: st.KSampled, Epsilon: st.RoundEpsilon, UnavailableRows: unavailable}, nil
	}
	return d, nil
}
