package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one named metric: its unit, which direction is better,
// and (end-to-end metrics only) the share of the baseline's median by
// which it may worsen before compare calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names are fixed; later issues cite them.
const (
	wTrainLocal   = "train_local"
	wTrainRemote  = "train_remote"
	wTrainCluster = "train_cluster"
	wORAMServe    = "oram_serve"
)

var workloadNames = []string{wTrainLocal, wTrainRemote, wTrainCluster, wORAMServe}

// e2eMetrics are the end-to-end metrics every workload emits, in the
// order BENCHMARK.json lists them (spec_test.go keeps the two in step).
// Bounds are sized from ten back-to-back sets on the 2-vCPU sandbox
// (README "Run-to-run spread"): at least three times the widest
// seed-to-seed spread seen, capped by the builder contract at 0.25.
var e2eMetrics = []metricDef{
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"round_wall_ms_p50", "ms", "lower", 0.25},
	{"round_wall_ms_p90", "ms", "lower", 0.25},
	{"cpu_s_per_round", "s", "lower", 0.25},
	{"alloc_mb_per_round", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"ssd_write_bytes_per_round", "B", "lower", 0.05},
	{"ssd_read_bytes_per_round", "B", "lower", 0.05},
	{"accesses_per_request", "ratio", "lower", 0.05},
	{"round_epsilon", "eps", "lower", 0.001},
}

// scopedE2E are end-to-end metrics that exist (or are non-zero) only on
// some workloads, so the driver's one-list-for-all-workloads contract
// cannot carry them as end_to_end entries. The full-set mode and
// compare treat them as end-to-end with the bounds below; the driver
// sees them among the per-layer metrics of a --trace 1 run.
var scopedE2E = []metricDef{
	{"wire_bytes_per_round", "B", "lower", 0.05},
	{"dropped_sample_share", "ratio", "lower", 0.001},
	{"final_auc", "auc", "higher", 0.01},
	{"failed_op_share", "ratio", "lower", 0},
}

// scopedWorkloads says where each scopedE2E metric applies.
var scopedWorkloads = map[string][]string{
	"wire_bytes_per_round": {wTrainRemote, wTrainCluster},
	"dropped_sample_share": {wTrainLocal, wTrainRemote, wTrainCluster},
	"final_auc":            {wTrainLocal, wTrainRemote, wTrainCluster},
	"failed_op_share":      workloadNames,
}

// layerMetrics are the per-layer metrics of a traced segment: per-round
// means unless the unit says otherwise. Self time is a span's duration
// minus the part its children cover (parallel children merged as an
// interval union).
var layerMetrics = []metricDef{
	// fl: Orchestrator/RoundHandle decorator. begin + train_phase +
	// upload + finish + stage + self = round wall, by construction.
	{Name: "fl.begin_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.train_phase_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.serve_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.serve_calls", Unit: "count", Better: "lower"},
	{Name: "fl.upload_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.upload_calls", Unit: "count", Better: "lower"},
	{Name: "fl.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.stage_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.self_ms", Unit: "ms", Better: "lower"},
	// client: seam-A time minus RoundTripper time.
	{Name: "client.sdk_self_ms", Unit: "ms", Better: "lower"},
	{Name: "client.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "client.requests", Unit: "count", Better: "lower"},
	{Name: "client.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "client.bytes_recv", Unit: "B", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	// api: Handler wrapper minus api.Controller decorator.
	{Name: "api.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "api.self_ms", Unit: "ms", Better: "lower"},
	{Name: "api.entries_self_ms", Unit: "ms", Better: "lower"},
	{Name: "api.upload_self_ms", Unit: "ms", Better: "lower"},
	{Name: "api.controller_ms", Unit: "ms", Better: "lower"},
	// cluster: coordinator controller time vs member RoundTripper/Handler.
	{Name: "cluster.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.member_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.member_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.fanout_requests", Unit: "count", Better: "lower"},
	{Name: "cluster.fanout_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.ckpt_stall_ms", Unit: "ms", Better: "lower"},
	// persist: files plus kernel.
	{Name: "persist.wal_bytes", Unit: "B", Better: "lower"},
	{Name: "persist.ckpt_bytes", Unit: "B", Better: "lower"},
	{Name: "persist.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_bytes", Unit: "B", Better: "lower"},
	// fedora/shard: controller calls.
	{Name: "fedora.begin_ms", Unit: "ms", Better: "lower"},
	{Name: "fedora.serve_ms", Unit: "ms", Better: "lower"},
	{Name: "fedora.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "fedora.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "fedora.stage_ms", Unit: "ms", Better: "lower"},
	{Name: "fedora.self_ms", Unit: "ms", Better: "lower"},
	// device/storage: WrapDevice decorator plus StorageReports().
	{Name: "device.ssd_read_ops", Unit: "count", Better: "lower"},
	{Name: "device.ssd_read_ms", Unit: "ms", Better: "lower"},
	{Name: "device.ssd_write_ops", Unit: "count", Better: "lower"},
	{Name: "device.ssd_write_ms", Unit: "ms", Better: "lower"},
	{Name: "device.ssd_bytes_read", Unit: "B", Better: "lower"},
	{Name: "device.ssd_bytes_written", Unit: "B", Better: "lower"},
	{Name: "device.dram_ops", Unit: "count", Better: "lower"},
	{Name: "device.dram_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.fsyncs", Unit: "count", Better: "lower"},
	{Name: "storage.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.write_p50_us", Unit: "us", Better: "lower"},
	// kernels: public functions replayed at the traced round's shape.
	{Name: "obliv.union_ms", Unit: "ms", Better: "lower"},
	{Name: "fdp.sample_us", Unit: "us", Better: "lower"},
	{Name: "raworam.ao_access_us", Unit: "us", Better: "lower"},
	{Name: "raworam.writeback_us", Unit: "us", Better: "lower"},
	{Name: "bufferoram.load_us", Unit: "us", Better: "lower"},
	{Name: "bufferoram.serve_us", Unit: "us", Better: "lower"},
	{Name: "bufferoram.aggregate_us", Unit: "us", Better: "lower"},
	{Name: "bufferoram.unload_us", Unit: "us", Better: "lower"},
	{Name: "tee.seal_4k_us", Unit: "us", Better: "lower"},
	{Name: "tee.open_4k_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.unmask_ms", Unit: "ms", Better: "lower"},
	{Name: "recmodel.train_step_us", Unit: "us", Better: "lower"},
	{Name: "kernel.coverage_share", Unit: "ratio", Better: "higher"},
	// trace
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	// untimed phases
	{Name: "verify_s", Unit: "s", Better: "lower"},
}

// tracedMetrics is what a --trace 1 run prints: the per-layer metrics
// plus the workload-scoped end-to-end metrics (zero where they do not
// apply).
func tracedMetrics() []metricDef {
	return append(append([]metricDef{}, layerMetrics...), scopedE2E...)
}

// e2eFor lists the end-to-end metrics that apply to one workload: the
// common ones plus its scoped ones.
func e2eFor(workload string) []metricDef {
	out := append([]metricDef{}, e2eMetrics...)
	for _, m := range scopedE2E {
		for _, w := range scopedWorkloads[m.Name] {
			if w == workload {
				out = append(out, m)
			}
		}
	}
	return out
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
