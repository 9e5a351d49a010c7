package cluster

import (
	"testing"

	"repro/internal/fl"
)

// TestClusterPrefetchParity: a lookahead trainer driving a coordinator
// over plain members lands on the bit-identical model of an in-process
// run with no staging. The coordinator fans each StageRound out
// through the same routing split as BeginRound, so every member's staged
// lists match the lists its next begin presents and the staged plans are
// adopted, not rejected.
func TestClusterPrefetchParity(t *testing.T) {
	// Reference: in-process, fully synchronous (no prefetch anywhere).
	ref, err := fl.New(testFLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(testRounds); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	flCfg := testFLConfig()
	flCfg.Prefetch = true
	global, err := fl.ControllerConfig(flCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1, ctrl1 := startMember(t, global, 0, 1)
	srv2, ctrl2 := startMember(t, global, 1, 1)
	_, csrv := startCoordinator(t, Config{
		Fedora: global,
		Nodes: []NodeSpec{
			{URL: srv1.URL, First: 0, Count: 1},
			{URL: srv2.URL, First: 1, Count: 1},
		},
	})

	got := runRemote(t, flCfg, csrv.URL)
	if got != want {
		t.Fatalf("fingerprint mismatch: sync local %016x, prefetch cluster %016x", want, got)
	}
	// Both members really streamed staged reads into their serves.
	r1, r2 := ctrl1.PrefetchReport(), ctrl2.PrefetchReport()
	if r1.Hits == 0 || r2.Hits == 0 {
		t.Fatalf("members did not prefetch: node0 %+v node1 %+v", r1, r2)
	}
}
