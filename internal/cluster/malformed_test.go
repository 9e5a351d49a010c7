package cluster

import (
	"context"
	"errors"
	"math"
	"net/http"
	"os"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
)

// TestMalformedBatchDoesNotFence: a batch the cluster cannot apply is the
// trainer's mistake, not a member's failure. Over HTTP a wrong-width
// gradient or aggregate frame is a 400 at the coordinator — nothing
// WAL'd, fanned out or applied, good rows of the batch included. Driven
// directly, a batch only a member can fault (zero samples) comes back as
// that member's 400 and fences nobody. Both rounds then finish and the
// table matches a single-process twin that never saw the bad batches.
func TestMalformedBatchDoesNotFence(t *testing.T) {
	global := haGlobal()
	mgr, err := persist.OpenManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co, srv := startCoordinator(t, Config{Fedora: global, Nodes: haMembers(t), Manager: mgr, CheckpointEvery: 100})
	twin, err := fedora.New(global)
	if err != nil {
		t.Fatal(err)
	}
	cc := testClientConfig()
	cc.BaseURL = srv.URL
	sdk, err := client.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(mgr.WALPath())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	allLive := func(when string) {
		t.Helper()
		st := co.Status()
		for _, n := range st.Nodes {
			if n.State != "live" {
				t.Fatalf("%s: node %s is %s (%s)", when, n.URL, n.State, n.LastError)
			}
		}
		if st.Status != string(shard.StatusHealthy) {
			t.Fatalf("%s: cluster status %q", when, st.Status)
		}
	}
	refused := func(what string, err error) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != api.CodeInvalidArgument {
			t.Fatalf("%s: err = %v, want a 400 invalid_argument", what, err)
		}
	}

	// Rows 3 and 200 live on different members.
	reqs := [][]uint64{{3, 200}}
	good := []fedora.RowGradient{
		{Row: 3, Grad: []float32{1, 2, 3, 4}, Samples: 1},
		{Row: 200, Grad: []float32{-1, -2, -3, -4}, Samples: 2},
	}
	wide := make([]float32, global.Dim+1)

	// Round 1, over HTTP.
	info, err := sdk.BeginRound(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	before := walSize()
	_, err = sdk.SubmitGradients(ctx, info.RoundID, []fedora.RowGradient{{Row: 3, Grad: wide, Samples: 1}, {Row: 200, Grad: wide, Samples: 1}})
	refused("wide gradient frame", err)
	_, err = sdk.SubmitAggregates(ctx, info.RoundID, []fedora.RowAggregate{{Row: 3, Sum: wide, Count: 1}})
	refused("wide aggregate frame", err)
	// A good row ahead of a wide one cannot even be framed.
	if _, err := sdk.SubmitGradients(ctx, info.RoundID, []fedora.RowGradient{good[0], {Row: 200, Grad: wide, Samples: 1}}); err == nil {
		t.Fatal("a batch of mixed widths was accepted")
	}
	if after := walSize(); after != before {
		t.Fatalf("refused batches grew the WAL from %d to %d bytes", before, after)
	}
	allLive("after the refused frames")
	if ok, err := sdk.SubmitGradients(ctx, info.RoundID, good); err != nil || !ok[0] || !ok[1] {
		t.Fatalf("good batch after the refused ones: %v %v", ok, err)
	}
	if _, err := sdk.FinishRound(ctx, info.RoundID); err != nil {
		t.Fatal(err)
	}

	// Round 2, on the coordinator's round directly — no api.Server in
	// front to validate.
	r, err := co.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	before = walSize()
	if _, err := r.SubmitGradients([]fedora.RowGradient{good[0], {Row: 200, Grad: wide, Samples: 1}}); err == nil {
		t.Fatal("round accepted a wide gradient")
	}
	if _, err := r.SubmitAggregates([]fedora.RowAggregate{{Row: 3, Sum: wide, Count: 1}}); err == nil {
		t.Fatal("round accepted a wide aggregate")
	}
	if after := walSize(); after != before {
		t.Fatalf("wide batches grew the WAL from %d to %d bytes", before, after)
	}
	_, err = r.SubmitGradients([]fedora.RowGradient{{Row: 3, Grad: good[0].Grad, Samples: 0}})
	refused("zero-sample gradient at the member", err)
	allLive("after a member's 400")
	if ok, err := r.SubmitGradients(good); err != nil || !ok[0] || !ok[1] {
		t.Fatalf("good batch after the member's 400: %v %v", ok, err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		tr, err := twin.BeginRound(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.SubmitGradients(good); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	for row := uint64(0); row < global.NumRows; row++ {
		want, err := twin.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			if math.Float32bits(got[d]) != math.Float32bits(want[d]) {
				t.Fatalf("row %d = %v, single-process twin has %v", row, got, want)
			}
		}
	}
}
