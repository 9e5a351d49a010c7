package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinyGeometry shrinks every workload so a whole segment — set-up,
// warm-up, three rounds, verification — takes a fraction of a second.
func tinyGeometry() geometry {
	return geometry{
		Items: 256, Users: 40, SamplesPerUser: 12,
		Dim: 4, Hidden: 8, ClientsPerRound: 6, MaxFeaturesPerClient: 24,
		CheckpointEvery: 2,
		ServeRows:       2048, ServeClients: 4, ServeFeatures: 16,
	}
}

// All four workloads, untraced and traced, three measured rounds each:
// every metric of the run's kind is emitted once, with its unit, the
// outputs verify, and nothing is left behind in the output directory
// but the trace.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, workload := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := workload + "/untraced"
			if traced {
				name = workload + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				res, err := runSegment(segmentConfig{
					Workload: workload, Seed: 3, Rounds: 3, Trace: traced, TraceBlock: 1,
					Geom: tinyGeometry(), OutDir: out, Setups: 2, VerifyRounds: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != 3 || len(res.RoundWallMs) != 3 {
					t.Errorf("measured %d rounds (%d wall samples), want 3", res.Rounds, len(res.RoundWallMs))
				}
				if res.Failed != 0 {
					t.Errorf("%d of %d operations failed: %+v", res.Failed, res.Attempted, res.Checks)
				}
				if len(res.Checks) == 0 {
					t.Error("no output was verified")
				}
				got, err := driverOutput(res)
				if err != nil {
					t.Fatal(err)
				}
				defs := driverMetrics(traced)
				if len(got.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(got.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := got.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v; they are chosen never to be 0", m.Name, v.Value)
					}
				}
				// The driver parses the object back from its last output line.
				line, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]any
				if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
					t.Errorf("driver line has keys %v (err %v), want correct/attempted/failed/metrics", back, err)
				}
				if traced {
					checkTraced(t, workload, res)
				}
				left, _ := filepath.Glob(filepath.Join(out, "*"))
				for _, f := range left {
					if !traced || f != res.TraceFile {
						t.Errorf("left behind: %s", f)
					}
				}
			})
		}
	}
}

// checkTraced asserts what the trace must show by construction.
func checkTraced(t *testing.T, workload string, res *segmentResult) {
	t.Helper()
	v := res.Values
	b, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace %s: %d spans, err %v", res.TraceFile, len(spans), err)
	}
	if v["device.ssd_bytes_read"] != v["ssd_read_bytes_per_round"] ||
		v["device.ssd_bytes_written"] != v["ssd_write_bytes_per_round"] {
		t.Errorf("device bytes (%v read, %v written) differ from the end-to-end SSD bytes (%v, %v)",
			v["device.ssd_bytes_read"], v["device.ssd_bytes_written"],
			v["ssd_read_bytes_per_round"], v["ssd_write_bytes_per_round"])
	}
	if v["fedora.begin_ms"] <= 0 || v["fedora.finish_ms"] <= 0 {
		t.Error("no time recorded in the controller")
	}
	if workload == wORAMServe {
		if v["storage.read_p50_us"] <= 0 {
			t.Error("oram_serve reported no measured file reads")
		}
		return
	}
	// The fl parts sum to the traced rounds' wall.
	var wall float64
	n := 0
	for i, traced := range res.TracedRound {
		if traced {
			wall += res.RoundWallMs[i]
			n++
		}
	}
	parts := v["fl.begin_ms"] + v["fl.train_phase_ms"] + v["fl.upload_ms"] + v["fl.finish_ms"] + v["fl.stage_ms"] + v["fl.self_ms"]
	if mean := wall / float64(n); parts < 0.9*mean || parts > 1.1*mean {
		t.Errorf("fl parts sum to %.3f ms, the round wall is %.3f ms", parts, mean)
	}
	if workload == wTrainLocal {
		if v["client.requests"] != 0 || v["api.handler_ms"] != 0 {
			t.Error("train_local shows client/api activity")
		}
		return
	}
	if v["client.requests"] <= 0 || v["client.transport_ms"] <= 0 || v["api.handler_ms"] <= 0 {
		t.Errorf("no client/api activity recorded: %v requests, %v ms transport, %v ms handlers",
			v["client.requests"], v["client.transport_ms"], v["api.handler_ms"])
	}
	if workload == wTrainCluster && (v["cluster.fanout_requests"] <= 0 || v["persist.wal_bytes"] <= 0 || v["cluster.member_busy_ms"] <= 0) {
		t.Errorf("no cluster activity recorded: %v fan-out requests, %v WAL bytes, %v ms member busy",
			v["cluster.fanout_requests"], v["persist.wal_bytes"], v["cluster.member_busy_ms"])
	}
}
